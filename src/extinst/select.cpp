#include "extinst/select.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>

#include "hwcost/lut_model.hpp"

namespace t1000 {
namespace {

void add_application(Selection* sel, const WindowView& view,
                     std::array<int, 2> input_widths) {
  const ConfId conf = sel->table.intern(view.def);
  const int luts = estimate_luts(view.def, input_widths).luts;
  if (static_cast<int>(sel->lengths.size()) < sel->table.size()) {
    sel->lengths.push_back(view.def.length());  // a new configuration
    sel->lut_costs.push_back(luts);
  } else {
    // The same configuration may serve wider operands elsewhere; report the
    // widest implementation it must support.
    sel->lut_costs[conf] = std::max(sel->lut_costs[conf], luts);
  }
  Application app;
  app.positions = view.positions;
  app.conf = conf;
  app.output = view.output;
  app.inputs = view.inputs;
  app.num_inputs = view.num_inputs;
  app.extra_outputs = view.extra_outputs;
  sel->apps.push_back(std::move(app));
}

// Covers `site` with consecutive maximal windows that each fit the LUT
// budget; most sites emit their full chain as a single window.
void emit_site(Selection* sel, const Program& program, const Profile& profile,
               const SeqSite& site, int lut_budget,
               const ExtractPolicy& shape) {
  const int len = site.length();
  int a = 0;
  while (a + shape.min_length - 1 < len) {
    int chosen_b = -1;
    for (int b = len - 1; b >= a + shape.min_length - 1; --b) {
      const auto view =
          window_view(program, site, a, b, shape.max_inputs, shape.max_outputs);
      if (!view || !window_valid(program, site, a, b, shape.max_inputs,
                                 shape.max_outputs)) {
        continue;
      }
      if (!estimate_luts(view->def, window_input_widths(profile, site, a, b))
               .fits(lut_budget)) {
        continue;
      }
      chosen_b = b;
      break;
    }
    if (chosen_b < 0) {
      ++a;
      continue;
    }
    add_application(sel,
                    *window_view(program, site, a, chosen_b, shape.max_inputs,
                                 shape.max_outputs),
                    window_input_widths(profile, site, a, chosen_b));
    a = chosen_b + 1;
  }
}

}  // namespace

std::string validate(const SelectPolicy& policy) {
  const auto range = [](const char* field, int lo, int hi,
                         const std::string& got) {
    return std::string(field) + " must be in [" + std::to_string(lo) + ", " +
           std::to_string(hi) + "] (got " + got + ")";
  };
  if (policy.num_pfus < kUnlimitedPfus || policy.num_pfus > kMaxPfus) {
    return range("num_pfus", kUnlimitedPfus, kMaxPfus,
                 std::to_string(policy.num_pfus));
  }
  if (policy.lut_budget < 0) {
    return range("lut_budget", 0, std::numeric_limits<int>::max(),
                 std::to_string(policy.lut_budget));
  }
  if (!(policy.time_threshold >= 0.0 && policy.time_threshold <= 1.0)) {
    char got[32];
    std::snprintf(got, sizeof got, "%g", policy.time_threshold);
    return range("time_threshold", 0, 1, got);
  }
  if (const std::string bad = validate(policy.extract); !bad.empty()) {
    return "extract." + bad;
  }
  return {};
}

AnalyzedProgram analyze_program(const Program& program,
                                std::uint64_t max_steps,
                                const ExtractPolicy& policy) {
  if (const std::string bad = validate(policy); !bad.empty()) {
    throw std::invalid_argument("analyze_program: " + bad);
  }
  AnalyzedProgram ap;
  ap.program = &program;
  ap.extract = policy;
  ap.cfg = Cfg::build(program);
  ap.liveness = compute_liveness(program, ap.cfg);
  ap.ucode = std::make_shared<const UopProgram>(
      UopProgram::build(program, /*ext_table=*/nullptr));
  ap.profile = profile_program(*ap.ucode, max_steps);
  ap.sites = extract_sites(program, ap.cfg, ap.liveness, ap.profile, policy);
  return ap;
}

Selection select_greedy(const AnalyzedProgram& ap, int lut_budget) {
  Selection sel;
  // Greedy fuses every window down to length 2 regardless of the extract
  // policy's min_length (which gates which *sites* exist, not how greedily
  // a too-wide site is split).
  ExtractPolicy shape = ap.extract;
  shape.min_length = 2;
  for (const SeqSite& site : ap.sites) {
    emit_site(&sel, *ap.program, ap.profile, site, lut_budget, shape);
  }
  return sel;
}

bool exceeds_time_threshold(std::uint64_t seq_cycles,
                            std::uint64_t total_cycles, double threshold) {
  if (total_cycles == 0) return false;
  // Strictly greater-than: the paper keeps sequences "responsible for more
  // than 0.5% of the total application time" (§5), so a sequence landing
  // exactly on the threshold is rejected.
  return static_cast<double>(seq_cycles) /
             static_cast<double>(total_cycles) >
         threshold;
}

Selection select_selective(const AnalyzedProgram& ap,
                           const SelectPolicy& policy) {
  Selection sel;
  const Program& program = *ap.program;
  // Windows are re-derived under the shape the sites were extracted with
  // (ap.extract is authoritative for these sites); the SelectPolicy keeps
  // its say over the shortest window worth a configuration.
  ExtractPolicy shape = ap.extract;
  shape.min_length = policy.extract.min_length;

  // Step 1: rank maximal sequences by their share of application time and
  // keep those above the threshold (paper: "responsible for more than 0.5%
  // of the total application time").
  std::map<std::string, std::uint64_t> cycles_by_sig;
  std::vector<WindowView> full_views;
  full_views.reserve(ap.sites.size());
  for (const SeqSite& site : ap.sites) {
    full_views.push_back(
        full_view(program, site, shape.max_inputs, shape.max_outputs));
    cycles_by_sig[full_views.back().def.signature()] +=
        static_cast<std::uint64_t>(full_views.back().def.base_cycles()) *
        site.exec_count;
  }
  std::set<std::string> hot;
  for (const auto& [sig, cycles] : cycles_by_sig) {
    if (exceeds_time_threshold(cycles, ap.profile.total_base_cycles,
                               policy.time_threshold)) {
      hot.insert(sig);
    }
  }

  std::vector<int> hot_sites;
  for (std::size_t i = 0; i < ap.sites.size(); ++i) {
    if (hot.count(full_views[i].def.signature()) != 0) {
      hot_sites.push_back(static_cast<int>(i));
    }
  }

  // Step 2: if the distinct hot sequences already fit in the PFUs, take
  // them all (the flowchart's early exit).
  const bool unlimited = policy.num_pfus == kUnlimitedPfus;
  if (unlimited || static_cast<int>(hot.size()) <= policy.num_pfus) {
    for (const int i : hot_sites) {
      emit_site(&sel, program, ap.profile, ap.sites[static_cast<std::size_t>(i)],
                policy.lut_budget, shape);
    }
    return sel;
  }

  // Step 3: consider loop bodies one at a time; within each region select
  // at most num_pfus distinct sequences using the subsequence matrix.
  std::map<int, std::vector<int>> regions;  // loop id -> hot site indices
  for (const int i : hot_sites) {
    regions[ap.sites[static_cast<std::size_t>(i)].loop].push_back(i);
  }

  for (auto& [loop, site_indices] : regions) {
    // How many distinct maximal sequences live here?
    std::set<std::string> distinct;
    for (const int i : site_indices) {
      distinct.insert(full_views[static_cast<std::size_t>(i)].def.signature());
    }
    if (static_cast<int>(distinct.size()) <= policy.num_pfus) {
      for (const int i : site_indices) {
        emit_site(&sel, program, ap.profile, ap.sites[static_cast<std::size_t>(i)],
                  policy.lut_budget, shape);
      }
      continue;
    }

    // Matrix step: enumerate windows, greedily pick <= num_pfus candidates
    // by marginal tiled gain.
    RegionMatrix rm =
        build_region_matrix(program, ap.profile, ap.sites, site_indices, loop,
                            shape.min_length, policy.lut_budget,
                            shape.max_inputs, shape.max_outputs);
    if (!policy.use_subsequence_matrix) {
      // Ablation: only maximal (full-site) windows may be chosen.
      for (std::size_t si = 0; si < rm.site_indices.size(); ++si) {
        const int len =
            ap.sites[static_cast<std::size_t>(rm.site_indices[si])].length();
        std::vector<SiteWindow> full;
        for (const SiteWindow& w : rm.windows[si]) {
          if (w.a == 0 && w.b == len - 1) full.push_back(w);
        }
        rm.windows[si] = std::move(full);
      }
    }
    std::vector<bool> selected(static_cast<std::size_t>(rm.k()), false);
    auto total_gain = [&](const std::vector<bool>& allowed) {
      std::uint64_t sum = 0;
      for (std::size_t si = 0; si < rm.site_indices.size(); ++si) {
        std::uint64_t g = 0;
        best_tiling(ap.sites[static_cast<std::size_t>(rm.site_indices[si])],
                    rm.windows[si], rm.candidates, allowed, &g);
        sum += g;
      }
      return sum;
    };
    std::uint64_t current = 0;
    for (int round = 0; round < policy.num_pfus; ++round) {
      int best = -1;
      std::uint64_t best_gain = current;
      for (int c = 0; c < rm.k(); ++c) {
        if (selected[static_cast<std::size_t>(c)]) continue;
        std::vector<bool> trial = selected;
        trial[static_cast<std::size_t>(c)] = true;
        const std::uint64_t g = total_gain(trial);
        if (g > best_gain) {
          best_gain = g;
          best = c;
        }
      }
      if (best < 0) break;  // no candidate adds gain
      selected[static_cast<std::size_t>(best)] = true;
      current = best_gain;
    }

    // Apply the chosen candidates: optimal tiling of each site.
    for (std::size_t si = 0; si < rm.site_indices.size(); ++si) {
      const SeqSite& site =
          ap.sites[static_cast<std::size_t>(rm.site_indices[si])];
      const std::vector<int> chosen = best_tiling(
          site, rm.windows[si], rm.candidates, selected, nullptr);
      for (const int wi : chosen) {
        const SiteWindow& w = rm.windows[si][static_cast<std::size_t>(wi)];
        const auto view = window_view(program, site, w.a, w.b,
                                      shape.max_inputs, shape.max_outputs);
        add_application(&sel, *view,
                        window_input_widths(ap.profile, site, w.a, w.b));
      }
    }
  }
  return sel;
}

}  // namespace t1000
