#include "isa/program.hpp"

#include <sstream>
#include <stdexcept>

namespace gea::isa {

const Function* Program::function_at(std::uint32_t pc) const {
  for (const auto& f : functions_) {
    if (f.contains(pc)) return &f;
  }
  return nullptr;
}

const Function* Program::function_named(const std::string& name) const {
  for (const auto& f : functions_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

std::optional<std::string> Program::validate() const {
  if (code_.empty()) return "empty program";
  if (functions_.empty()) return "no functions";
  // Functions must tile [0, size) in order without overlap.
  std::uint32_t expected = 0;
  for (const auto& f : functions_) {
    if (f.begin != expected) return "function '" + f.name + "' does not start where the previous ended";
    if (f.end <= f.begin) return "function '" + f.name + "' is empty";
    expected = f.end;
  }
  if (expected != code_.size()) return "functions do not cover the whole program";

  // The functions tile the code in order, so walking them visits every
  // instruction once, in index order (the first error found is the one a
  // flat scan would find), and the function being walked is the one each
  // jump must stay in: no instruction lies outside a function.
  std::vector<bool> is_start(code_.size(), false);
  for (const auto& f : functions_) is_start[f.begin] = true;
  for (const auto& f : functions_) {
    for (std::uint32_t i = f.begin; i < f.end; ++i) {
      const auto& ins = code_[i];
      if (has_target(ins.op)) {
        if (ins.target >= code_.size()) {
          return "instruction " + std::to_string(i) + " target out of range";
        }
        if (ins.op == Opcode::kCall) {
          if (!is_start[ins.target]) {
            return "call at " + std::to_string(i) + " does not target a function start";
          }
        } else if (!f.contains(ins.target)) {
          // Jumps must stay within their own function.
          return "jump at " + std::to_string(i) + " leaves function '" + f.name + "'";
        }
      }
      if (ins.rd >= kNumRegisters || ins.rs >= kNumRegisters) {
        return "instruction " + std::to_string(i) + " uses invalid register";
      }
    }
  }
  // Each function's last instruction must not fall through off its end.
  for (const auto& f : functions_) {
    const Opcode last = code_[f.end - 1].op;
    if (!is_terminator(last)) {
      return "function '" + f.name + "' can fall through its end";
    }
  }
  return std::nullopt;
}

std::string Program::disassemble() const {
  std::ostringstream out;
  for (const auto& f : functions_) {
    out << f.name << ":\n";
    for (std::uint32_t i = f.begin; i < f.end; ++i) {
      out << "  " << i << ": " << to_string(code_[i]) << '\n';
    }
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// ProgramBuilder

void ProgramBuilder::begin_function(const std::string& name) {
  if (in_function_) throw std::logic_error("begin_function inside a function");
  in_function_ = true;
  function_start_ = static_cast<std::uint32_t>(program_.code().size());
  function_name_ = name;
}

void ProgramBuilder::end_function() {
  if (!in_function_) throw std::logic_error("end_function outside a function");
  const auto end = static_cast<std::uint32_t>(program_.code().size());
  if (end == function_start_) throw std::logic_error("empty function " + function_name_);
  program_.functions().push_back({function_name_, function_start_, end});
  in_function_ = false;
}

void ProgramBuilder::emit(Instruction ins) {
  if (!in_function_) throw std::logic_error("emit outside a function");
  program_.code().push_back(ins);
}

void ProgramBuilder::movi(int rd, std::int64_t imm) {
  emit({Opcode::kMovImm, static_cast<std::uint8_t>(rd), 0, imm, 0});
}
void ProgramBuilder::mov(int rd, int rs) {
  emit({Opcode::kMovReg, static_cast<std::uint8_t>(rd),
        static_cast<std::uint8_t>(rs), 0, 0});
}
void ProgramBuilder::load(int rd, int rs, std::int64_t offset) {
  emit({Opcode::kLoad, static_cast<std::uint8_t>(rd),
        static_cast<std::uint8_t>(rs), offset, 0});
}
void ProgramBuilder::store(int rd, std::int64_t offset, int rs) {
  emit({Opcode::kStore, static_cast<std::uint8_t>(rd),
        static_cast<std::uint8_t>(rs), offset, 0});
}
void ProgramBuilder::push(int rs) {
  emit({Opcode::kPush, 0, static_cast<std::uint8_t>(rs), 0, 0});
}
void ProgramBuilder::pop(int rd) {
  emit({Opcode::kPop, static_cast<std::uint8_t>(rd), 0, 0, 0});
}
void ProgramBuilder::alu(Opcode op, int rd, int rs) {
  emit({op, static_cast<std::uint8_t>(rd), static_cast<std::uint8_t>(rs), 0, 0});
}
void ProgramBuilder::alui(Opcode op, int rd, std::int64_t imm) {
  emit({op, static_cast<std::uint8_t>(rd), 0, imm, 0});
}
void ProgramBuilder::cmp(int ra, int rb) {
  emit({Opcode::kCmp, static_cast<std::uint8_t>(ra),
        static_cast<std::uint8_t>(rb), 0, 0});
}
void ProgramBuilder::cmpi(int ra, std::int64_t imm) {
  emit({Opcode::kCmpImm, static_cast<std::uint8_t>(ra), 0, imm, 0});
}
void ProgramBuilder::syscall(Syscall n, int rs) {
  emit({Opcode::kSyscall, 0, static_cast<std::uint8_t>(rs),
        static_cast<std::int64_t>(n), 0});
}
void ProgramBuilder::nop() { emit({Opcode::kNop, 0, 0, 0, 0}); }
void ProgramBuilder::halt() { emit({Opcode::kHalt, 0, 0, 0, 0}); }
void ProgramBuilder::ret() { emit({Opcode::kRet, 0, 0, 0, 0}); }

int ProgramBuilder::new_label() {
  label_pos_.push_back(-1);
  return static_cast<int>(label_pos_.size()) - 1;
}

void ProgramBuilder::bind(int label) {
  if (label < 0 || label >= static_cast<int>(label_pos_.size())) {
    throw std::logic_error("bind: unknown label");
  }
  if (label_pos_[static_cast<std::size_t>(label)] >= 0) {
    throw std::logic_error("bind: label bound twice");
  }
  label_pos_[static_cast<std::size_t>(label)] =
      static_cast<std::int64_t>(program_.code().size());
}

void ProgramBuilder::jump(Opcode op, int label) {
  if (!is_jump(op)) throw std::logic_error("jump: not a jump opcode");
  fixups_.emplace_back(static_cast<std::uint32_t>(program_.code().size()), label);
  emit({op, 0, 0, 0, 0});
}

void ProgramBuilder::call(const std::string& function_name) {
  call_fixups_.emplace_back(static_cast<std::uint32_t>(program_.code().size()),
                            function_name);
  emit({Opcode::kCall, 0, 0, 0, 0});
}

Program ProgramBuilder::build() {
  if (in_function_) throw std::logic_error("build: unterminated function");
  for (const auto& [idx, label] : fixups_) {
    const std::int64_t pos = label_pos_.at(static_cast<std::size_t>(label));
    if (pos < 0) throw std::logic_error("build: unbound label");
    program_.code()[idx].target = static_cast<std::uint32_t>(pos);
  }
  for (const auto& [idx, name] : call_fixups_) {
    const Function* f = program_.function_named(name);
    if (f == nullptr) throw std::logic_error("build: call to unknown function " + name);
    program_.code()[idx].target = f->begin;
  }
  if (auto err = program_.validate()) {
    throw std::logic_error("build: invalid program: " + *err);
  }
  return std::move(program_);
}

}  // namespace gea::isa
