// Include-hygiene pin: every public header in src/, included together in
// alphabetical order (so no header can rely on a same-directory sibling
// being included first). Keeping this list exhaustive is enforced by review;
// a header that is not self-sufficient or collides with another (macro leak,
// ODR clash) breaks this translation unit.

#include "src/core/edge_rules.h"
#include "src/core/full_overlay.h"
#include "src/core/mto_sampler.h"
#include "src/core/overlay_graph.h"
#include "src/estimate/estimators.h"
#include "src/estimate/metrics.h"
#include "src/estimate/sampling_distribution.h"
#include "src/estimate/size_estimator.h"
#include "src/experiments/error_vs_cost.h"
#include "src/experiments/harness.h"
#include "src/experiments/latent_space_theory.h"
#include "src/graph/builder.h"
#include "src/graph/datasets.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/graph/graph_stats.h"
#include "src/graph/io.h"
#include "src/mcmc/diagnostics.h"
#include "src/mcmc/geweke.h"
#include "src/mcmc/stopping.h"
#include "src/net/restricted_interface.h"
#include "src/net/social_network.h"
#include "src/runtime/concurrent_interface_cache.h"
#include "src/runtime/crawl_scheduler.h"
#include "src/spectral/conductance.h"
#include "src/spectral/eigen.h"
#include "src/spectral/mixing.h"
#include "src/spectral/transition.h"
#include "src/util/rng.h"
#include "src/util/spin_lock.h"
#include "src/util/stats.h"
#include "src/util/table.h"
#include "src/util/thread_pool.h"
#include "src/walk/mhrw.h"
#include "src/walk/random_jump.h"
#include "src/walk/sampler.h"
#include "src/walk/snowball.h"
#include "src/walk/srw.h"

#include <gtest/gtest.h>

namespace mto {
namespace {

TEST(BuildSanityTest, AllPublicHeadersCompileTogether) {
  // The assertion is the compile itself; instantiate a couple of core types
  // to keep the TU from being optimized into nothing.
  Graph g(3, {{0, 1}, {1, 2}});
  OverlayGraph overlay;
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(overlay.num_removed(), 0u);
}

}  // namespace
}  // namespace mto
