#include "plan/plan_exec.h"

#include <string>
#include <utility>

#include "common/assert.h"
#include "ring/redistribute.h"

namespace cj::plan {

PlanRunReport PlanExecutor::execute(
    const Plan& plan, const QueryGraph& graph,
    std::vector<rel::PartitionedRelation> inputs) const {
  const int n = cfg_.cluster.num_hosts;
  CJ_CHECK_MSG(plan.order.size() >= 2 && plan.rounds.size() + 1 == plan.order.size(),
               "malformed plan");
  CJ_CHECK_MSG(inputs.size() == static_cast<std::size_t>(graph.num_relations()),
               "one input handle per query-graph relation");
  for (const int id : plan.order) {
    CJ_CHECK_MSG(inputs[static_cast<std::size_t>(id)].hosts() == n,
                 "input fragments must match the cluster's num_hosts");
  }

  PlanRunReport report;
  std::vector<rel::Relation> inter =
      std::move(inputs[static_cast<std::size_t>(plan.order[0])]).take_fragments();
  std::string inter_name = graph.name(plan.order[0]);

  for (std::size_t k = 0; k < plan.rounds.size(); ++k) {
    const PlannedRound& planned = plan.rounds[k];
    const bool final_round = k + 1 == plan.rounds.size();
    std::vector<rel::Relation> joined =
        std::move(inputs[static_cast<std::size_t>(planned.relation)])
            .take_fragments();

    cyclo::FragmentInputs frags;
    if (planned.intermediate_rotates) {
      frags.rotating = std::move(inter);
      frags.stationary = std::move(joined);
    } else {
      frags.rotating = std::move(joined);
      frags.stationary = std::move(inter);
    }

    cyclo::ClusterConfig cluster = cfg_.cluster;
    if (cfg_.round_config) cfg_.round_config(static_cast<int>(k), &cluster);

    cyclo::JoinSpec spec;
    spec.algorithm = planned.kind == model::JoinKind::kSortMerge
                         ? cyclo::Algorithm::kSortMergeJoin
                         : cyclo::Algorithm::kHashJoin;
    spec.band = planned.band;
    spec.join_threads = cfg_.join_threads;
    spec.materialize = !final_round || cfg_.materialize_final;

    // The round's join (and the working memory it keeps) is gone before
    // its output is projected and redistributed: a plan's rounds differ in
    // shape, so keeping it for the next round would only pile it on top of
    // the materialized intermediate.
    const cyclo::RunReport run =
        cyclo::CycloJoin(cluster, spec).run_fragments(std::move(frags));

    RoundReport round;
    round.relation = planned.relation;
    round.intermediate_rotated = planned.intermediate_rotates;
    round.band = planned.band;
    round.matches = run.matches;
    round.checksum = run.checksum;
    round.rotation_bytes = run.bytes_on_wire;
    round.setup_wall = run.setup_wall;
    round.join_wall = run.join_wall;
    round.recovered = run.fault.recovered;
    round.degraded = run.fault.degraded;

    inter_name = "(" + inter_name + " ⋈ " + graph.name(planned.relation) + ")";
    if (spec.materialize) {
      // Project each host's output partition in place: the intermediate
      // side's payload accumulates left-deep, the shared key stays the key.
      inter.clear();
      inter.reserve(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) {
        rel::Relation frag(inter_name);
        const auto out = run.host_results[static_cast<std::size_t>(i)].output();
        frag.reserve(out.size());
        for (const join::OutTuple& t : out) {
          frag.push_back(rel::Tuple{
              t.key, planned.intermediate_rotates ? t.r_payload : t.s_payload});
        }
        inter.push_back(std::move(frag));
      }
      if (!final_round) {
        const ring::RedistributeStats moved = ring::redistribute_by_key(&inter);
        round.redistribute_bytes = moved.bytes_on_wire;
      }
      round.rows_per_host.reserve(static_cast<std::size_t>(n));
      for (const rel::Relation& frag : inter) {
        round.rows_per_host.push_back(frag.rows());
      }
    }

    report.wire_bytes += round.rotation_bytes + round.redistribute_bytes;
    report.rounds.push_back(std::move(round));
  }

  report.matches = report.rounds.back().matches;
  report.checksum = report.rounds.back().checksum;
  if (cfg_.materialize_final) {
    report.output = rel::PartitionedRelation(inter_name, std::move(inter));
  }
  return report;
}

}  // namespace cj::plan
