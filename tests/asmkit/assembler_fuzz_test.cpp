// Seeded mutation fuzz of the assembler. Every mutant of a bundled
// workload's source must either assemble to a Program whose text encodes
// (so t1000-as could store what t1000-run executes) or throw AsmError, the
// `error[input]: line N:` the tools print. Any other exception, a crash or
// a hang is a bug; the ASan+UBSan CI job runs this binary as part of its
// full ctest.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "asmkit/assembler.hpp"
#include "workloads/workload.hpp"

namespace t1000 {
namespace {

TEST(AssemblerFuzz, MutatedWorkloadsAssembleOrThrowAsmError) {
  std::vector<Workload> workloads = all_workloads();
  for (const auto* suite : {&extended_workloads(), &compiled_workloads()}) {
    workloads.insert(workloads.end(), suite->begin(), suite->end());
  }

  std::uint64_t state = 0x2545f4914f6cdd1dull;  // fixed seed
  const auto rng = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  // Characters a substitution writes: register, label, operand and
  // comment syntax, digits and directive dots.
  static constexpr std::string_view kAlphabet =
      "$(),:#.-+0123456789abcdefxtsvz \n";
  // Numerals at the edges of the 16-bit and 32-bit immediate fields.
  static constexpr std::string_view kNumerals[] = {
      "2147483647", "0xffffffff", "65536", "-32769", "32768", "-1", "0"};
  constexpr int kMutantsPerWorkload = 160;
  int assembled = 0;
  int refused = 0;
  for (const Workload& w : workloads) {
    for (int i = 0; i < kMutantsPerWorkload; ++i) {
      std::string m = w.source;
      const int edits = 1 + static_cast<int>(rng() % 3);
      for (int e = 0; e < edits && !m.empty(); ++e) {
        const std::size_t at = rng() % m.size();
        switch (rng() % 5) {
          case 0:  // substitute one character
            m[at] = kAlphabet[rng() % kAlphabet.size()];
            break;
          case 1:  // delete a short run
            m.erase(at, 1 + rng() % 8);
            break;
          case 2: {  // duplicate a span somewhere else
            const std::string span = m.substr(at, 1 + rng() % 64);
            m.insert(rng() % (m.size() + 1), span);
            break;
          }
          case 3: {  // replace the number under `at` with a boundary one
            std::size_t end = at;
            while (end < m.size() &&
                   std::string_view("0123456789xabcdefABCDEF-")
                           .find(m[end]) != std::string_view::npos) {
              ++end;
            }
            m.replace(at, end - at,
                      kNumerals[rng() % std::size(kNumerals)]);
            break;
          }
          default:  // truncate
            m.resize(at);
            break;
        }
      }
      try {
        const Program p = assemble(m);
        p.encode_text();
        ++assembled;
      } catch (const AsmError&) {
        ++refused;
      } catch (const std::exception& e) {
        FAIL() << w.name << " mutant " << i
               << " escaped as a non-AsmError: " << e.what() << "\n"
               << m;
      } catch (...) {
        FAIL() << w.name << " mutant " << i
               << " threw a non-std exception\n"
               << m;
      }
    }
  }
  // Both outcomes occur: many edits land in comments or keep a line legal.
  EXPECT_GT(assembled, 0);
  EXPECT_GT(refused, 0);
}

}  // namespace
}  // namespace t1000
