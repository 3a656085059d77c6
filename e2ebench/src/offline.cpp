// offline_surrogate: in-process library use with no service. A d=10, n=9
// grid (8,085,505 points, 65 MB of coefficients, far larger than a core's
// L2) is sampled, hierarchized with hierarchize() — the entry point the
// README and `csgtool create` use — round-tripped through io::save/load in
// memory, and evaluated with parallel::omp_evaluate_many_blocked on all
// cores over a fixed uniform point set.
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common.hpp"
#include "csg/bench/stats.hpp"
#include "csg/core/evaluate.hpp"
#include "csg/core/evaluation_plan.hpp"
#include "csg/core/hierarchize.hpp"
#include "csg/io/serialize.hpp"
#include "csg/parallel/omp_algorithms.hpp"
#include "csg/workloads/sampling.hpp"
#include "ladder.hpp"
#include "trace.hpp"

namespace e2e {
namespace {

struct Shape {
  csg::dim_t d;
  csg::level_t n;
  std::size_t points;  ///< the fixed evaluation point set
  std::size_t chunk;   ///< points per omp_evaluate_many_blocked call
  int rounds;          ///< set-up + build + evaluation slice, repeated
  double rung_s;
  double call_limit_us;  ///< on-time limit of one call
};

Shape shape_for(const Options& o) {
  if (o.tiny) return {4, 5, 1024, 256, 2, 0.05, 250000};
  return {10, 9, 2048, 256, 5, 1.0, 250000};
}

constexpr std::size_t kBlock = 64;

/// What the timed loop of evaluation calls saw, accumulated over slices.
/// Times are on the phase clock: the slices' measured durations laid end to
/// end, builds excluded. A slice lasts until its last call is verified, so
/// every counted call completes within the phase.
struct Calls {
  std::uint64_t calls = 0, points = 0, verified = 0;
  std::size_t pos = 0;  ///< next point of the fixed set
  double phase_s = 0;   ///< sum of the slices' durations
  std::vector<double> start_s, latency_us;
  csg::SoaKernelStats soa_before, soa_after;
};

/// Evaluate consecutive chunks of the point set, starting calls for
/// `seconds`, and append to `c`.
void evaluate_slice(const csg::EvaluationPlan& plan,
                    const csg::CompactStorage& grid,
                    const std::vector<csg::CoordVector>& points,
                    const std::vector<csg::real_t>& refs, const Shape& shape,
                    double seconds, Tracer& tracer, Tracer::Buffer* buf, Calls& c) {
  if (c.calls == 0) c.soa_before = csg::soa_kernel_stats();
  const double offset_s = c.phase_s;
  const auto start = Clock::now();
  const auto end = after(start, seconds);
  while (Clock::now() < end) {
    if (c.pos + shape.chunk > points.size()) c.pos = 0;
    const std::span<const csg::CoordVector> slice(points.data() + c.pos, shape.chunk);
    const std::uint64_t req = c.calls + 1;
    const auto t0 = Clock::now();
    std::vector<csg::real_t> out;
    {
      Span sp(live(tracer, buf), SpanName::kParallelEvaluate, req, root_span_id(req));
      out = csg::parallel::omp_evaluate_many_blocked(plan, grid.values(), slice,
                                                     kBlock, nproc());
    }
    const auto done = Clock::now();
    if (Tracer::Buffer* b = live(tracer, buf))
      b->record(SpanName::kGenRequest, root_span_id(req), 0, req, t0, done);
    std::uint64_t good = 0;
    for (std::size_t k = 0; k < out.size(); ++k)
      good += same_value(out[k], refs[c.pos + k]);
    const bool all_good = good == shape.chunk;
    ++c.calls;
    c.points += shape.chunk;
    c.verified += good;
    c.start_s.push_back(offset_s + us_between(start, t0) / 1e6);
    c.latency_us.push_back(all_good ? us_between(t0, done) : INFINITY);
    c.pos += shape.chunk;
  }
  c.phase_s += seconds_since(start);
  c.soa_after = csg::soa_kernel_stats();
}

}  // namespace

Outcome run_offline_surrogate(const Options& opts, Tracer& tracer) {
  Outcome out;
  const Shape shape = shape_for(opts);
  Tracer::Buffer* buf = tracer.open_buffer();

  const auto points = csg::workloads::uniform_points(shape.d, shape.points,
                                                     mix_seed(opts.seed, 1000));
  const auto plan =
      csg::EvaluationPlan::shared(csg::RegularSparseGrid(shape.d, shape.n));
  std::vector<csg::real_t> refs;

  // Rounds of set-up (allocate + sample), build (hierarchize + save; then
  // load and compare, untimed) and one slice of the timed evaluation, so
  // every reported statistic samples the host across the whole run rather
  // than one stretch of it. Every round builds identical coefficients.
  const double phase_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  std::vector<double> setup_s, build_s, hier_s, save_s, load_s;
  std::uint64_t io_bytes = 0;
  std::unique_ptr<csg::CompactStorage> grid, nodal;
  Calls calls;
  for (int r = 0; r < shape.rounds; ++r) {
    grid.reset();
    auto t0 = Clock::now();
    auto s = std::make_unique<csg::CompactStorage>(shape.d, shape.n);
    {
      Span sp(buf, SpanName::kCoreSample);
      sample_field(*s, 1);
    }
    setup_s.push_back(seconds_since(t0));
    if (opts.trace && r + 1 == shape.rounds)
      nodal = std::make_unique<csg::CompactStorage>(*s);
    t0 = Clock::now();
    {
      Span sp(buf, SpanName::kCoreHierarchize);
      csg::hierarchize(*s);
    }
    hier_s.push_back(seconds_since(t0));
    std::string bytes;
    t0 = Clock::now();
    {
      Span sp(buf, SpanName::kIoSave);
      std::ostringstream os;
      csg::io::save(*s, os);
      bytes = os.str();
    }
    save_s.push_back(seconds_since(t0));
    build_s.push_back(hier_s.back() + save_s.back());
    io_bytes = bytes.size();
    std::istringstream is(bytes);
    t0 = Clock::now();
    csg::CompactStorage loaded = [&] {
      Span sp(buf, SpanName::kIoLoad);
      return csg::io::load(is);
    }();
    load_s.push_back(seconds_since(t0));
    out.require(same_grid(loaded, *s), "io round trip changed the grid");
    grid = std::move(s);
    if (refs.empty()) {
      refs = reference_values({grid.get()}, points);
      if (opts.corrupt_reference) refs[0] = std::nextafter(refs[0], INFINITY);
    }
    evaluate_slice(*plan, *grid, points, refs, shape, phase_s / shape.rounds, tracer,
                   buf, calls);
  }

  out.attempted = calls.points;
  out.failed = calls.points - calls.verified;
  out.e2e("setup_s", csg::bench::median_of(setup_s), "s");
  out.e2e("throughput_pts_s", static_cast<double>(calls.verified) / calls.phase_s,
          "pts/s");
  // A few hundred calls: one window, i.e. the plain percentiles of the phase.
  const LatencyFigures wl = latency_figures(calls.start_s, calls.latency_us,
                                            calls.phase_s, calls.phase_s,
                                            shape.call_limit_us);
  out.e2e("latency_p50_us", wl.p50_us, "us");
  out.e2e("latency_p99_us", wl.p99_us, "us");
  out.e2e("on_time_share", wl.on_time_share, "share");
  out.e2e("ok_share",
          static_cast<double>(calls.verified) / static_cast<double>(std::max<std::uint64_t>(calls.points, 1)),
          "share");
  out.e2e("build_s", interquartile_mean(build_s), "s");
  out.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  std::fprintf(stderr, "e2ebench: %llu calls of %zu points, %llu verified\n",
               static_cast<unsigned long long>(calls.calls), shape.chunk,
               static_cast<unsigned long long>(calls.verified));

  if (opts.trace) {
    tracer.resume();
    Calls traced;
    evaluate_slice(*plan, *grid, points, refs, shape, phase_s, tracer, buf, traced);
    out.require(traced.verified == traced.points,
                "traced evaluation differs from evaluate_span");
    const GridPools pools({grid.get()}, points, refs);
    const RungResult core =
        run_rung(RungKind::kCore, pools, shape.chunk, 1, shape.rung_s, tracer, buf);
    const RungResult par = run_rung(RungKind::kParallel, pools, shape.chunk, nproc(),
                                    shape.rung_s, tracer, buf);
    out.require(core.mismatches + par.mismatches == 0,
                "kernel ladder values differ from evaluate_span");
    const HierarchizeLadder hl =
        run_hierarchize_ladder({nodal.get()}, {grid.get()}, nproc(), buf);
    out.require(hl.mismatches == 0,
                "hierarchization paths disagree with hierarchize()");
    const std::uint64_t lanes = calls.soa_after.lanes - calls.soa_before.lanes;
    const double untraced_p50 = csg::bench::median_of(calls.latency_us);
    out.layer("core.lane_fill",
              lanes ? static_cast<double>(calls.points) / (8.0 * static_cast<double>(lanes))
                    : 0,
              "share");
    out.layer("core.soa_blocks",
              static_cast<double>(calls.soa_after.blocks - calls.soa_before.blocks),
              "count");
    out.layer("core.eval_ns_per_pt", core.ns_per_pt, "ns");
    out.layer("core.hierarchize_s", csg::bench::median_of(hier_s), "s");
    out.layer("core.hierarchize_poles_s", hl.poles_s, "s");
    out.layer("core.sample_s", csg::bench::median_of(setup_s), "s");
    out.layer("core.self_us_p50", core.call_us_p50, "us");
    out.layer("parallel.eval_ns_per_pt", par.ns_per_pt, "ns");
    out.layer("parallel.omp_hierarchize_s", hl.omp_s, "s");
    out.layer("parallel.omp_hierarchize_poles_s", hl.omp_poles_s, "s");
    out.layer("parallel.self_us_p50", par.call_us_p50 - core.call_us_p50 / nproc(),
              "us");
    out.layer("io.save_s", csg::bench::median_of(save_s), "s");
    out.layer("io.load_s", csg::bench::median_of(load_s), "s");
    out.layer("io.bytes", static_cast<double>(io_bytes), "bytes");
    out.layer("trace.overhead_share",
              untraced_p50 > 0 ? csg::bench::median_of(traced.latency_us) / untraced_p50 - 1
                               : 0,
              "share");
    out.layer("core.plan_build_ms", cold_plan_build_ms(grid->grid(), buf), "ms");
  }
  return out;
}

}  // namespace e2e
