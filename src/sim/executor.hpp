// Functional (architectural) simulator for assembled T1000 programs.
//
// Executes one instruction per step() and reports everything later passes
// need: register values read, result produced, memory address touched, and
// the successor instruction index. Trace recording (sim/trace.hpp) keeps
// what the timing simulator needs of this stream, which replays it — the
// paper models perfect branch prediction, so the fetched path and the
// committed path coincide.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>

#include "asmkit/program.hpp"
#include "isa/extdef.hpp"
#include "sim/memory.hpp"

namespace t1000 {

struct UopProgram;    // sim/ucode.hpp
class CommittedTrace;  // sim/trace.hpp
struct Profile;        // sim/profiler.hpp

class SimError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Which interpreter backs step()/run().
//
//  * kUcode (the default): the pre-decoded threaded-code interpreter
//    (sim/ucode.hpp) — the program is lowered to a dense uop stream once
//    at construction and dispatched via computed goto.
//  * kReference: the original instruction-by-instruction interpreter,
//    kept as the executable specification. The differential and fuzz
//    suites (tests/sim/ucode_*_test.cpp) pin the two byte-identical.
enum class ExecMode {
  kUcode,
  kReference,
};

// Everything observable about one executed instruction.
struct StepInfo {
  std::int32_t index = 0;       // instruction index that executed
  std::int32_t next_index = 0;  // successor (pc after this step)
  Instruction ins;
  bool is_mem = false;
  std::uint32_t mem_addr = 0;
  std::uint8_t mem_size = 0;
  bool has_result = false;
  std::uint32_t result = 0;
  std::array<std::uint32_t, kMaxExtInputs> src_vals{};
  int num_src = 0;
  bool branch_taken = false;
};

class Executor {
 public:
  // `ext_table` supplies EXT semantics; may be null for programs without
  // extended instructions. The table must outlive the executor. Under the
  // default kUcode mode the program is pre-decoded at construction (see
  // ExecMode above).
  explicit Executor(const Program& program,
                    const ExtInstTable* ext_table = nullptr,
                    ExecMode mode = ExecMode::kUcode);

  // Executes an already-decoded program (shared, e.g., by a whole grid of
  // workers); `ucode` — and the program/table it points to — must outlive
  // the executor.
  explicit Executor(const UopProgram& ucode);

  // Reloads the data segment, clears registers, sets $sp to the stack top
  // and pc to the `main` symbol (or 0). The initial $ra points one past the
  // end of text, so a final `jr $ra` halts cleanly.
  void reset();

  bool halted() const { return halted_; }
  std::int32_t pc() const { return pc_; }
  std::uint64_t steps_executed() const { return steps_; }

  std::uint32_t reg(Reg r) const { return regs_[r]; }
  void set_reg(Reg r, std::uint32_t v) {
    if (r != kRegZero) regs_[r] = v;
  }

  Memory& memory() { return mem_; }
  const Memory& memory() const { return mem_; }
  const Program& program() const { return program_; }

  // Executes one instruction. Throws SimError when already halted, on a
  // wild pc/jump, or on an EXT with no matching table entry.
  StepInfo step();

  // Steps until halt or `max_steps`; returns the number of steps taken.
  std::uint64_t run(std::uint64_t max_steps);

 private:
  // The threaded interpreter's loop drives the executor's state directly
  // (sim/ucode.cpp); record_trace(const UopProgram&, ...) and
  // profile_program(const UopProgram&, ...) record and profile through the
  // private no-StepInfo fast paths.
  friend struct UcodeImpl;
  friend CommittedTrace record_trace(const UopProgram& ucode,
                                     std::uint64_t max_steps);
  friend Profile profile_program(const UopProgram& ucode,
                                 std::uint64_t max_steps);

  std::uint32_t jump_target_index(std::uint32_t byte_addr) const;

  // The original interpreter — the executable specification the uop path
  // is differentially tested against (and the fallback one kInterp uop
  // defers to per irregular step).
  StepInfo step_reference();

  // Threaded-code entry points, defined in ucode.cpp.
  StepInfo step_ucode();
  std::uint64_t run_ucode(std::uint64_t max_steps);
  void record_ucode(CommittedTrace& trace, std::uint64_t max_steps);
  void profile_ucode(Profile& prof, std::uint64_t max_steps);

  const Program& program_;
  const ExtInstTable* ext_table_;
  // Null in kReference mode. Points at owned_ucode_ when this executor
  // decoded the program itself, at the caller's decoded program otherwise.
  const UopProgram* ucode_ = nullptr;
  std::shared_ptr<const UopProgram> owned_ucode_;
  Memory mem_;
  std::array<std::uint32_t, kNumRegs> regs_{};
  std::int32_t pc_ = 0;
  bool halted_ = false;
  std::uint64_t steps_ = 0;
};

}  // namespace t1000
