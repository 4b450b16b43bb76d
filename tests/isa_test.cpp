#include <gtest/gtest.h>

#include "isa/assembler.hpp"
#include "isa/interpreter.hpp"
#include "isa/isa.hpp"
#include "isa/program.hpp"

namespace {

using namespace gea::isa;

// ---------------------------------------------------------------------------
// Opcode metadata

TEST(Isa, OpcodePredicates) {
  EXPECT_TRUE(is_jump(Opcode::kJmp));
  EXPECT_TRUE(is_jump(Opcode::kJne));
  EXPECT_FALSE(is_jump(Opcode::kCall));
  EXPECT_TRUE(is_conditional(Opcode::kJle));
  EXPECT_FALSE(is_conditional(Opcode::kJmp));
  EXPECT_TRUE(is_terminator(Opcode::kHalt));
  EXPECT_TRUE(is_terminator(Opcode::kRet));
  EXPECT_TRUE(is_terminator(Opcode::kJmp));
  EXPECT_FALSE(is_terminator(Opcode::kJe));
  EXPECT_TRUE(has_target(Opcode::kCall));
  EXPECT_FALSE(has_target(Opcode::kHalt));
}

TEST(Isa, InstructionToString) {
  EXPECT_EQ(to_string({Opcode::kMovImm, 1, 0, 42, 0}), "movi r1, 42");
  EXPECT_EQ(to_string({Opcode::kAdd, 2, 3, 0, 0}), "add r2, r3");
  EXPECT_EQ(to_string({Opcode::kJne, 0, 0, 0, 17}), "jne 17");
  EXPECT_EQ(to_string({Opcode::kLoad, 1, 2, 8, 0}), "load r1, [r2+8]");
  EXPECT_EQ(to_string({Opcode::kHalt, 0, 0, 0, 0}), "halt");
}

// ---------------------------------------------------------------------------
// ProgramBuilder

TEST(ProgramBuilder, BuildsValidProgram) {
  ProgramBuilder b;
  b.begin_function("main");
  b.movi(1, 5);
  b.halt();
  b.end_function();
  const auto p = b.build();
  EXPECT_EQ(p.size(), 2u);
  EXPECT_FALSE(p.validate().has_value());
  EXPECT_EQ(p.functions().front().name, "main");
}

TEST(ProgramBuilder, LabelsResolve) {
  ProgramBuilder b;
  b.begin_function("main");
  const int l = b.new_label();
  b.jump(Opcode::kJmp, l);
  b.nop();  // skipped
  b.bind(l);
  b.halt();
  b.end_function();
  const auto p = b.build();
  EXPECT_EQ(p.code()[0].target, 2u);
}

TEST(ProgramBuilder, UnboundLabelThrows) {
  ProgramBuilder b;
  b.begin_function("main");
  b.jump(Opcode::kJmp, b.new_label());
  b.halt();
  b.end_function();
  EXPECT_THROW(b.build(), std::logic_error);
}

TEST(ProgramBuilder, DoubleBindThrows) {
  ProgramBuilder b;
  b.begin_function("main");
  const int l = b.new_label();
  b.bind(l);
  b.nop();
  EXPECT_THROW(b.bind(l), std::logic_error);
}

TEST(ProgramBuilder, CallToUnknownFunctionThrows) {
  ProgramBuilder b;
  b.begin_function("main");
  b.call("nope");
  b.halt();
  b.end_function();
  EXPECT_THROW(b.build(), std::logic_error);
}

TEST(ProgramBuilder, ForwardCallResolves) {
  ProgramBuilder b;
  b.begin_function("main");
  b.call("f");
  b.halt();
  b.end_function();
  b.begin_function("f");
  b.ret();
  b.end_function();
  const auto p = b.build();
  EXPECT_EQ(p.code()[0].target, 2u);
  EXPECT_EQ(p.function_named("f")->begin, 2u);
}

TEST(ProgramBuilder, EmitOutsideFunctionThrows) {
  ProgramBuilder b;
  EXPECT_THROW(b.nop(), std::logic_error);
}

TEST(ProgramBuilder, NestedFunctionThrows) {
  ProgramBuilder b;
  b.begin_function("a");
  EXPECT_THROW(b.begin_function("b"), std::logic_error);
}

// ---------------------------------------------------------------------------
// Program validation failure modes

TEST(ProgramValidate, EmptyProgram) {
  Program p;
  EXPECT_TRUE(p.validate().has_value());
}

TEST(ProgramValidate, TargetOutOfRange) {
  Program p;
  p.code().push_back({Opcode::kJmp, 0, 0, 0, 99});
  p.functions().push_back({"main", 0, 1});
  EXPECT_TRUE(p.validate().has_value());
}

TEST(ProgramValidate, FallThroughEndRejected) {
  Program p;
  p.code().push_back({Opcode::kNop, 0, 0, 0, 0});
  p.functions().push_back({"main", 0, 1});
  const auto err = p.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("fall through"), std::string::npos);
}

TEST(ProgramValidate, JumpAcrossFunctionsRejected) {
  Program p;
  p.code().push_back({Opcode::kJmp, 0, 0, 0, 1});  // into 'f'
  p.code().push_back({Opcode::kRet, 0, 0, 0, 0});
  p.functions().push_back({"main", 0, 1});
  p.functions().push_back({"f", 1, 2});
  EXPECT_TRUE(p.validate().has_value());
}

TEST(ProgramValidate, CallMustTargetFunctionStart) {
  Program p;
  p.code().push_back({Opcode::kCall, 0, 0, 0, 3});  // mid-function
  p.code().push_back({Opcode::kHalt, 0, 0, 0, 0});
  p.code().push_back({Opcode::kNop, 0, 0, 0, 0});
  p.code().push_back({Opcode::kRet, 0, 0, 0, 0});
  p.functions().push_back({"main", 0, 2});
  p.functions().push_back({"f", 2, 4});
  EXPECT_TRUE(p.validate().has_value());
}

// validate() walks the functions in order and looks call targets up in a
// table of function starts; the message it returns must stay the first
// error a scan over the instructions in index order meets.
TEST(ProgramValidate, FirstErrorInInstructionOrder) {
  const Instruction nop{Opcode::kNop, 0, 0, 0, 0};
  const Instruction halt{Opcode::kHalt, 0, 0, 0, 0};
  const Instruction ret{Opcode::kRet, 0, 0, 0, 0};
  auto jump = [](Opcode op, std::uint32_t target) {
    return Instruction{op, 0, 0, 0, target};
  };
  struct Case {
    std::vector<Instruction> code;
    std::vector<Function> functions;
    std::string want;  // empty = valid
  };
  const std::vector<Case> cases = {
      // The jump out of main comes before the call into the middle of f.
      {{nop, jump(Opcode::kJmp, 3), halt, jump(Opcode::kCall, 4), nop, ret},
       {{"main", 0, 3}, {"f", 3, 6}},
       "jump at 1 leaves function 'main'"},
      // A bad register at 0 comes before a target out of range at 1.
      {{{Opcode::kMovReg, 16, 0, 0, 0}, jump(Opcode::kJmp, 99), halt},
       {{"main", 0, 3}},
       "instruction 0 uses invalid register"},
      {{halt, jump(Opcode::kJe, 7), ret},
       {{"main", 0, 1}, {"f", 1, 3}},
       "instruction 1 target out of range"},
      // Calls may target the start of any function, the last one included.
      {{jump(Opcode::kCall, 4), halt, nop, ret, nop, ret},
       {{"main", 0, 2}, {"g", 2, 4}, {"h", 4, 6}},
       ""},
      {{jump(Opcode::kCall, 5), halt, nop, ret, nop, ret},
       {{"main", 0, 2}, {"g", 2, 4}, {"h", 4, 6}},
       "call at 0 does not target a function start"},
      // Every instruction is checked before any function's last one.
      {{nop, jump(Opcode::kJmp, 0)},
       {{"main", 0, 1}, {"f", 1, 2}},
       "jump at 1 leaves function 'f'"},
      {{nop, ret},
       {{"main", 0, 1}, {"f", 1, 2}},
       "function 'main' can fall through its end"},
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    Program p;
    p.code() = cases[i].code;
    p.functions() = cases[i].functions;
    EXPECT_EQ(p.validate().value_or(""), cases[i].want) << "case " << i;
  }
}

TEST(ProgramValidate, FunctionsMustTile) {
  Program p;
  p.code().push_back({Opcode::kHalt, 0, 0, 0, 0});
  p.code().push_back({Opcode::kRet, 0, 0, 0, 0});
  p.functions().push_back({"main", 0, 1});
  // gap: instruction 1 uncovered
  const auto err = p.validate();
  ASSERT_TRUE(err.has_value());
}

TEST(Program, Disassemble) {
  ProgramBuilder b;
  b.begin_function("main");
  b.movi(1, 7);
  b.halt();
  b.end_function();
  const auto text = b.build().disassemble();
  EXPECT_NE(text.find("main:"), std::string::npos);
  EXPECT_NE(text.find("movi r1, 7"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Assembler

TEST(Assembler, RoundTripLoop) {
  const auto p = assemble(R"(
    func main
      movi r1, 0
    loop:
      addi r1, 1
      cmpi r1, 9
      jle loop
      nop
      halt
    endfunc
  )");
  EXPECT_EQ(p.size(), 6u);
  EXPECT_EQ(p.code()[3].op, Opcode::kJle);
  EXPECT_EQ(p.code()[3].target, 1u);
}

TEST(Assembler, CommentsAndBlankLines) {
  const auto p = assemble(
      "; leading comment\n"
      "func main\n"
      "\n"
      "  halt ; trailing comment\n"
      "endfunc\n");
  EXPECT_EQ(p.size(), 1u);
}

TEST(Assembler, MemoryOperands) {
  const auto p = assemble(R"(
    func main
      load r1, [r2+8]
      store [r3+4], r1
      load r4, [r5]
      halt
    endfunc
  )");
  EXPECT_EQ(p.code()[0].imm, 8);
  EXPECT_EQ(p.code()[1].rd, 3);
  EXPECT_EQ(p.code()[2].imm, 0);
}

TEST(Assembler, CallsAcrossFunctions) {
  const auto p = assemble(R"(
    func main
      call helper
      halt
    endfunc
    func helper
      syscall 3, r1
      ret
    endfunc
  )");
  EXPECT_EQ(p.code()[0].target, 2u);
}

TEST(Assembler, ErrorsCarryLineNumbers) {
  try {
    assemble("func main\n  bogus r1\n  halt\nendfunc\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Assembler, RejectsBadRegister) {
  EXPECT_THROW(assemble("func main\n movi r99, 0\n halt\nendfunc"),
               std::runtime_error);
}

TEST(Assembler, RejectsUnknownLabel) {
  EXPECT_THROW(assemble("func main\n jmp nowhere\n halt\nendfunc"),
               std::runtime_error);
}

TEST(Assembler, RejectsMissingEndfunc) {
  EXPECT_THROW(assemble("func main\n halt\n"), std::runtime_error);
}

TEST(Assembler, RejectsWrongOperandCount) {
  EXPECT_THROW(assemble("func main\n movi r1\n halt\nendfunc"),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Interpreter

ExecResult run(const std::string& src, ExecOptions opts = {}) {
  return execute(assemble(src), opts);
}

TEST(Interpreter, ArithmeticAndResult) {
  const auto r = run(R"(
    func main
      movi r1, 6
      movi r2, 7
      mul r1, r2
      mov r0, r1
      halt
    endfunc
  )");
  EXPECT_EQ(r.reason, ExitReason::kHalted);
  EXPECT_EQ(r.result, 42);
}

TEST(Interpreter, CountedLoopRunsExactly) {
  const auto r = run(R"(
    func main
      movi r1, 0
    loop:
      addi r1, 1
      cmpi r1, 10
      jl loop
      mov r0, r1
      halt
    endfunc
  )");
  EXPECT_EQ(r.result, 10);
}

TEST(Interpreter, BranchConditions) {
  // jg must not fire on equality.
  const auto r = run(R"(
    func main
      movi r1, 5
      cmpi r1, 5
      jg big
      movi r0, 1
      halt
    big:
      movi r0, 2
      halt
    endfunc
  )");
  EXPECT_EQ(r.result, 1);
}

TEST(Interpreter, SignedComparisons) {
  const auto r = run(R"(
    func main
      movi r1, -3
      cmpi r1, 2
      jl less
      movi r0, 0
      halt
    less:
      movi r0, 1
      halt
    endfunc
  )");
  EXPECT_EQ(r.result, 1);
}

TEST(Interpreter, MemoryRoundTrip) {
  const auto r = run(R"(
    func main
      movi r1, 100
      movi r2, 77
      store [r1+4], r2
      load r0, [r1+4]
      halt
    endfunc
  )");
  EXPECT_EQ(r.result, 77);
}

TEST(Interpreter, UninitializedMemoryReadsZero) {
  const auto r = run(R"(
    func main
      movi r1, 5000
      load r0, [r1+0]
      halt
    endfunc
  )");
  EXPECT_EQ(r.result, 0);
}

TEST(Interpreter, PushPop) {
  const auto r = run(R"(
    func main
      movi r1, 11
      push r1
      movi r1, 0
      pop r0
      halt
    endfunc
  )");
  EXPECT_EQ(r.result, 11);
}

TEST(Interpreter, StackUnderflowTraps) {
  const auto r = run("func main\n pop r0\n halt\nendfunc");
  EXPECT_EQ(r.reason, ExitReason::kTrap);
  EXPECT_NE(r.trap_message.find("underflow"), std::string::npos);
}

TEST(Interpreter, DivideByZeroTraps) {
  const auto r = run(R"(
    func main
      movi r1, 10
      movi r2, 0
      div r1, r2
      halt
    endfunc
  )");
  EXPECT_EQ(r.reason, ExitReason::kTrap);
}

TEST(Interpreter, InfiniteLoopHitsStepBudget) {
  ExecOptions opts;
  opts.step_budget = 1000;
  const auto r = run("func main\nloop:\n jmp loop\nendfunc", opts);
  EXPECT_EQ(r.reason, ExitReason::kStepBudget);
  EXPECT_EQ(r.steps, 1000u);
}

TEST(Interpreter, CallAndReturn) {
  const auto r = run(R"(
    func main
      movi r1, 4
      call square
      halt
    endfunc
    func square
      mov r0, r1
      mul r0, r1
      ret
    endfunc
  )");
  EXPECT_EQ(r.result, 16);
}

TEST(Interpreter, ReturnFromMainTerminates) {
  const auto r = run("func main\n movi r0, 3\n ret\nendfunc");
  EXPECT_EQ(r.reason, ExitReason::kReturnedFromMain);
  EXPECT_EQ(r.result, 3);
}

TEST(Interpreter, SyscallsRecordTrace) {
  const auto r = run(R"(
    func main
      movi r1, 42
      syscall 3, r1
      syscall 6, r1
      halt
    endfunc
  )");
  ASSERT_EQ(r.trace.size(), 2u);
  EXPECT_EQ(r.trace[0].syscall_no, 3);
  EXPECT_EQ(r.trace[0].arg, 42);
  EXPECT_EQ(r.trace[1].syscall_no, 6);
}

TEST(Interpreter, InputSyscallsConsumeStream) {
  ExecOptions opts;
  opts.input_stream = {5, 0};
  // read until zero; counts iterations in r1.
  const auto r = run(R"(
    func main
      movi r1, 0
    loop:
      syscall 2, r0
      cmpi r0, 0
      je done
      addi r1, 1
      jmp loop
    done:
      mov r0, r1
      halt
    endfunc
  )", opts);
  EXPECT_EQ(r.result, 1);
}

TEST(Interpreter, ExitSyscallStops) {
  const auto r = run(R"(
    func main
      movi r1, 9
      syscall 0, r1
      movi r1, 1
      halt
    endfunc
  )");
  EXPECT_EQ(r.reason, ExitReason::kHalted);
  EXPECT_EQ(r.result, 9);
}

TEST(Interpreter, InvalidProgramThrows) {
  Program p;  // empty
  EXPECT_THROW(execute(p), std::invalid_argument);
}

TEST(Interpreter, EquivalenceNormalizesHaltVsReturn) {
  const auto a = run("func main\n movi r0, 5\n halt\nendfunc");
  const auto b = run("func main\n movi r0, 5\n ret\nendfunc");
  EXPECT_TRUE(a.equivalent(b));
}

TEST(Interpreter, EquivalenceDetectsTraceDifference) {
  const auto a = run("func main\n movi r1, 1\n syscall 3, r1\n halt\nendfunc");
  const auto b = run("func main\n movi r1, 2\n syscall 3, r1\n halt\nendfunc");
  EXPECT_FALSE(a.equivalent(b));
}

TEST(Interpreter, ShiftSemantics) {
  const auto r = run(R"(
    func main
      movi r1, 1
      movi r2, 4
      shl r1, r2
      mov r0, r1
      halt
    endfunc
  )");
  EXPECT_EQ(r.result, 16);
}

}  // namespace
