// Seeded mutation fuzz of the daemon's POST body path. Every mutant of a
// valid grid request goes through the parse steps t1000-serve runs before
// a job is queued — Json::parse, then run_spec_from_json on each of
// "runs" — and must either parse cleanly or throw JsonError (the 400 the
// daemon answers). Any other exception, a crash or a hang is a bug; the
// ASan+UBSan CI job runs this binary as part of its full ctest.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "harness/experiment.hpp"
#include "harness/json.hpp"
#include "harness/serialize.hpp"

namespace t1000 {
namespace {

// A valid two-run request, as a client would POST it to /v1/jobs.
std::string grid_request() {
  Json runs = Json::array();
  runs.push_back(to_json(baseline_spec("gsm_dec")));
  runs.push_back(to_json(selective_spec("g721_enc", "sel2", 2, 10)));
  Json options = Json::object();
  options["observe"] = Json(true);
  options["run_budget_ms"] = Json(250.0);
  Json request = Json::object();
  request["runs"] = std::move(runs);
  request["options"] = std::move(options);
  return request.dump();
}

void parse_request(const std::string& body) {
  const Json request = Json::parse(body);
  for (const Json& spec : request.at("runs").items()) {
    run_spec_from_json(spec);
  }
}

TEST(RequestFuzz, MutatedGridRequestsParseOrThrowJsonError) {
  const std::string valid = grid_request();
  ASSERT_NO_THROW(parse_request(valid));

  std::uint64_t state = 0x9e3779b97f4a7c15ull;  // fixed seed
  const auto rng = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  // Bytes an insertion splices in: JSON structure, number and literal
  // characters, an escape, and raw non-ASCII noise.
  static constexpr char kAlphabet[] = "{}[]\":,-+.eE019 tfnul\\\x7f\xc3\xff";
  constexpr int kMutants = 12000;
  int parsed = 0;
  int refused = 0;
  for (int i = 0; i < kMutants; ++i) {
    std::string m = valid;
    const int edits = 1 + static_cast<int>(rng() % 4);
    for (int e = 0; e < edits && !m.empty(); ++e) {
      const std::size_t at = rng() % m.size();
      switch (rng() % 5) {
        case 0:  // flip one bit
          m[at] = static_cast<char>(m[at] ^ (1 << (rng() % 8)));
          break;
        case 1:  // insert one byte
          m.insert(at, 1, kAlphabet[rng() % (sizeof(kAlphabet) - 1)]);
          break;
        case 2:  // delete a short run
          m.erase(at, 1 + rng() % 8);
          break;
        case 3: {  // duplicate a slice somewhere else
          const std::string slice = m.substr(at, 1 + rng() % 32);
          m.insert(rng() % (m.size() + 1), slice);
          break;
        }
        default:  // truncate
          m.resize(at);
          break;
      }
    }
    try {
      parse_request(m);
      ++parsed;
    } catch (const JsonError&) {
      ++refused;
    } catch (const std::exception& e) {
      FAIL() << "mutant " << i << " escaped as a non-JsonError: " << e.what()
             << "\n" << m;
    } catch (...) {
      FAIL() << "mutant " << i << " threw a non-std exception\n" << m;
    }
  }
  // Both outcomes occur: edits inside a value often still parse.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(refused, 0);
}

}  // namespace
}  // namespace t1000
