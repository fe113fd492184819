// Checks a recorded trace's replay against the reference interpreter.
//
// Walks a TraceCursor over `trace` in lockstep with a live
// ExecMode::kReference Executor running the same program, and requires
// every step the cursor derives (index, successor, memory access, branch
// outcome, sentinel) to match what the interpreter reports. Both recording
// modes append through one writer, so comparing two traces cannot catch a
// wrong successor rule; this comparison can.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "asmkit/program.hpp"
#include "isa/extdef.hpp"
#include "sim/executor.hpp"
#include "sim/trace.hpp"

namespace t1000 {
namespace fuzz {

inline void expect_cursor_matches_reference(const Program& program,
                                            const ExtInstTable* table,
                                            const CommittedTrace& trace,
                                            const std::string& tag) {
  const DecodedTrace decoded(trace, program);
  TraceCursor cursor(decoded);
  Executor ref(program, table, ExecMode::kReference);
  std::size_t i = 0;
  while (!ref.halted()) {
    ASSERT_FALSE(cursor.halted()) << tag << ": trace ends at step " << i;
    ASSERT_EQ(cursor.next_pc(), program.pc_of(ref.pc()))
        << tag << " step " << i;
    const StepInfo want = ref.step();
    const DecodedStep got = cursor.step();
    ASSERT_EQ(got.row->index, want.index) << tag << " step " << i;
    ASSERT_EQ(got.next_index, want.next_index) << tag << " step " << i;
    ASSERT_EQ(got.row->mem_size != 0, want.is_mem) << tag << " step " << i;
    ASSERT_EQ(got.mem_addr, want.mem_addr) << tag << " step " << i;
    ASSERT_EQ(got.mem_size, want.mem_size) << tag << " step " << i;
    ASSERT_EQ(got.taken, want.branch_taken) << tag << " step " << i;
    ASSERT_EQ(got.row->sentinel, want.index == program.size())
        << tag << " step " << i;
    ++i;
  }
  EXPECT_TRUE(cursor.halted()) << tag << ": trace runs past the halt";
  EXPECT_EQ(i, trace.size()) << tag;
  EXPECT_EQ(trace.checksum(), ref.reg(kRegV0)) << tag;
}

}  // namespace fuzz
}  // namespace t1000
