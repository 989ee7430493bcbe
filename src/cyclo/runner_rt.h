// The wall-clock runtime backend's run entry point (Backend::kRt).
//
// run_rt() executes the same plan as the sim Runner — same validation, same
// distribution, same kernel closures (runner_common.h), same unmodified
// roundabout protocol (ring/node.cpp) — but as real concurrency: one OS
// thread and wall-clock engine per host, a real worker-thread pool per
// host's CorePool, and shared-memory wires (rt/wire.h) between ring
// neighbors. See docs/RUNTIME.md.
#pragma once

#include <vector>

#include "cyclo/cyclo_join.h"

namespace cj::cyclo {

namespace detail {
struct HostMemory;
}

/// Runs the query set on the rt backend and reports like the sim runner
/// (matches/checksums are identical; timings are wall-clock nanoseconds).
/// Supports crash-only fault plans; link faults and slowdowns are rejected.
/// A non-null `frags` skips the distribute step and moves the pre-placed
/// per-host fragments in (see CycloJoin::run_fragments). `memory` is the
/// CycloJoin's kept working memory: taken in, and handed back filled when
/// the run returns (may be null).
SharedRunReport run_rt(const ClusterConfig& cluster, const JoinSpec& spec,
                       const rel::Relation& rotating,
                       const std::vector<SharedQuery>& queries,
                       FragmentInputs* frags,
                       std::vector<detail::HostMemory>* memory);

}  // namespace cj::cyclo
