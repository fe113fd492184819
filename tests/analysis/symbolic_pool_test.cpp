// Seeded property test for SymbolicPool (analysis/equiv.hpp), the
// hash-consed expression DAG behind the `equiv.symbolic` proof. Its
// normalizations (constant folding, zero identities, immediate forms read
// as register forms, commutative operand order) let that proof succeed;
// an unsound one would let it prove a wrong EXT. Over random chains of
// candidate ALU operations on three input leaves, constants and $zero:
//
//  1. a chain rebuilt with commuted operands, inserted x+0 / x|0 / x^0 /
//     x-0 / shift-by-0 steps and immediates moved into a register
//     (lui + ori) interns to the same node as the original;
//  2. any two values that intern to the same node agree under eval_alu on
//     valuations that include 0, 1, 0xFFFFFFFF and 0x80000000. Every step
//     of the chains, of their rewrites and of a mutant with operands
//     swapped at random takes part, so an unsound rule has pairs to merge.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <vector>

#include "analysis/equiv.hpp"
#include "isa/alu.hpp"

namespace t1000 {
namespace {

using Inputs = std::array<std::uint32_t, 3>;

// One value, both as a pool node and as a function of the inputs.
struct Expr {
  SymbolicPool::NodeId node;
  std::function<std::uint32_t(const Inputs&)> eval;
};

enum class Variant { kOriginal, kRewritten, kMutant };

bool commutative(Opcode op) {
  return op == Opcode::kAddu || op == Opcode::kAnd || op == Opcode::kOr ||
         op == Opcode::kXor || op == Opcode::kNor;
}

// Builds chain `seed` and returns every step. All variants share the
// chain's shape, drawn from `rng`; `alt` draws the variant's own choices.
std::vector<Expr> build_chain(SymbolicPool& pool, std::uint32_t seed,
                              Variant variant) {
  constexpr Opcode kAlu3[] = {Opcode::kAddu, Opcode::kSubu, Opcode::kAnd,
                              Opcode::kOr,   Opcode::kXor,  Opcode::kNor,
                              Opcode::kSlt,  Opcode::kSltu};
  // Immediate forms, and the register form each evaluates like.
  constexpr Opcode kImm[] = {Opcode::kSll,   Opcode::kSrl,  Opcode::kSra,
                             Opcode::kAddiu, Opcode::kAndi, Opcode::kOri,
                             Opcode::kXori,  Opcode::kSlti, Opcode::kSltiu};
  constexpr Opcode kReg[] = {Opcode::kSllv, Opcode::kSrlv, Opcode::kSrav,
                             Opcode::kAddu, Opcode::kAnd,  Opcode::kOr,
                             Opcode::kXor,  Opcode::kSlt,  Opcode::kSltu};
  // x op 0 == x for each of these.
  constexpr Opcode kIdentity[] = {Opcode::kAddu,  Opcode::kOr,  Opcode::kXor,
                                  Opcode::kSubu,  Opcode::kAddiu,
                                  Opcode::kOri,   Opcode::kXori, Opcode::kSll,
                                  Opcode::kSrl,   Opcode::kSra};
  std::mt19937 rng(seed);
  std::mt19937 alt(~seed);
  const bool rewrite = variant == Variant::kRewritten;
  std::vector<Expr> steps;
  const auto constant = [&](std::uint32_t c) {
    return Expr{pool.constant(c), [c](const Inputs&) { return c; }};
  };
  const auto apply = [&](Opcode op, const Expr& a, const Expr& b) {
    steps.push_back({pool.apply(op, a.node, b.node),
                     [op, a, b](const Inputs& in) {
                       return eval_alu(op, a.eval(in), b.eval(in));
                     }});
    return steps.back();
  };
  const auto leaf = [&]() {
    const auto k = static_cast<std::uint32_t>(rng() % 8);
    if (k < 3) {
      return Expr{pool.input(static_cast<int>(k)),
                  [k](const Inputs& in) { return in[k]; }};
    }
    const std::uint32_t corners[] = {0, 1, 0xFFFFFFFFu, 0x80000000u};
    return constant(k < 7 ? corners[k - 3] : static_cast<std::uint32_t>(rng()));
  };
  const auto identity = [&](const Expr& x) {
    if (!rewrite || alt() % 3 != 0) return x;
    const Opcode op = kIdentity[alt() % 10];
    return commutative(op) && alt() % 2 ? apply(op, constant(0), x)
                                        : apply(op, x, constant(0));
  };
  Expr x = leaf();
  for (std::uint32_t i = 0, n = 1 + rng() % 8; i < n; ++i) {
    if (rng() % 3 == 0) {
      const Opcode op = kAlu3[rng() % 8];
      const Expr a = identity(x);
      const Expr b = identity(rng() % 4 ? leaf() : x);
      const bool swap = variant == Variant::kMutant
                            ? alt() % 2 == 0
                            : rewrite && commutative(op) && alt() % 2 == 0;
      x = swap ? apply(op, b, a) : apply(op, a, b);
      continue;
    }
    const std::size_t k = rng() % 9;
    const auto imm = static_cast<std::int32_t>(rng() % 0x10000) - 0x8000;
    const std::uint32_t value =
        k < 3 ? static_cast<std::uint32_t>(imm) & 31 : extend_imm(kImm[k], imm);
    if (rewrite && alt() % 2 == 0) {
      const Expr hi = apply(Opcode::kLui, constant(0), constant(value >> 16));
      x = apply(kReg[k], identity(x),
                apply(Opcode::kOri, hi, constant(value & 0xFFFF)));
    } else {
      x = apply(kImm[k], identity(x), constant(value));
    }
  }
  return steps;
}

TEST(SymbolicPool, RewrittenChainsInternToTheSameNode) {
  for (std::uint32_t seed = 1; seed <= 2000; ++seed) {
    SymbolicPool pool;
    const auto want = build_chain(pool, seed, Variant::kOriginal).back().node;
    const auto got = build_chain(pool, seed, Variant::kRewritten).back().node;
    ASSERT_EQ(got, want) << "seed " << seed << ": " << pool.render(want)
                         << " rewritten to " << pool.render(got);
  }
}

TEST(SymbolicPool, ValuesInterningToOneNodeAgreeUnderEvalAlu) {
  const std::uint32_t corners[] = {0, 1, 0xFFFFFFFFu, 0x80000000u};
  std::vector<Inputs> valuations;
  for (const std::uint32_t x : corners) {
    for (const std::uint32_t y : corners) {
      for (const std::uint32_t z : corners) valuations.push_back({x, y, z});
    }
  }
  std::mt19937 rng(7);
  for (int i = 0; i < 16; ++i) {
    valuations.push_back({static_cast<std::uint32_t>(rng()),
                          static_cast<std::uint32_t>(rng()),
                          static_cast<std::uint32_t>(rng())});
  }
  // One pool per batch of chains keeps its linear-probe interning cheap.
  for (std::uint32_t batch = 0; batch < 50; ++batch) {
    SymbolicPool pool;
    std::map<SymbolicPool::NodeId, Expr> witness;
    for (std::uint32_t s = 0; s < 3; ++s) {
      const SymbolicPool::NodeId leaf = pool.input(static_cast<int>(s));
      witness.emplace(leaf,
                      Expr{leaf, [s](const Inputs& in) { return in[s]; }});
    }
    for (std::uint32_t seed = batch * 40; seed < batch * 40 + 40; ++seed) {
      for (const Variant v :
           {Variant::kOriginal, Variant::kRewritten, Variant::kMutant}) {
        for (const Expr& e : build_chain(pool, seed, v)) {
          const auto [it, fresh] = witness.emplace(e.node, e);
          if (fresh) continue;
          for (const Inputs& in : valuations) {
            ASSERT_EQ(e.eval(in), it->second.eval(in))
                << "seed " << seed << ": two values intern to "
                << pool.render(e.node) << " but differ at (" << in[0] << ", "
                << in[1] << ", " << in[2] << ")";
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace t1000
