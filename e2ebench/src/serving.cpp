// The two serving workloads: point_stream (open loop, single-point frames
// over 127.0.0.1 TCP) and bulk_frames (closed loop, 256-point frames over
// the in-process loopback transport). Both serve the same four d=6, n=8
// grids through GridRegistry -> EvalService -> NetServer.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <random>
#include <sstream>
#include <tuple>

#include "common.hpp"
#include "csg/bench/stats.hpp"
#include "csg/core/evaluate.hpp"
#include "csg/core/evaluation_plan.hpp"
#include "csg/core/hierarchize.hpp"
#include "csg/io/serialize.hpp"
#include "csg/net/client.hpp"
#include "csg/net/protocol.hpp"
#include "csg/net/server.hpp"
#include "csg/net/transport.hpp"
#include "csg/serve/grid_registry.hpp"
#include "csg/serve/service.hpp"
#include "csg/workloads/sampling.hpp"
#include "ladder.hpp"
#include "trace.hpp"

namespace e2e {
namespace {

using csg::net::ByteStream;
using csg::serve::Status;

/// point_stream's offered load. Single-point batches cost the padded 8-lane
/// kernel, so 8,000 req/s already kept two of four cores busy and built an
/// unbounded backlog whenever a shared host slowed down; 4,000 req/s keeps
/// the open loop below capacity with room for such slowdowns.
constexpr double kStreamRate = 4000;
constexpr double kStreamLimitUs = 2000;   // per request
constexpr double kFrameLimitUs = 100000;  // per 256-point frame
constexpr double kReloadPeriodS = 0.5;
/// Latency windows (see latency_figures): one reload period, so each
/// point_stream window holds exactly one reload (2,000 requests).
constexpr double kWindowS = kReloadPeriodS;
constexpr std::size_t kFramePoints = 256;
constexpr std::size_t kFramesInFlight = 4;
constexpr int kBulkClients = 4;

struct Shape {
  csg::dim_t d;
  csg::level_t n;
  int grids;
  std::size_t pool;  ///< distinct points, each with a reference value
  int setup_reps;    ///< complete set-ups before and again after the phase
  double rung_s;     ///< duration of each kernel-ladder rung
};

Shape shape_for(const Options& o) {
  if (o.tiny) return {3, 4, 4, 2048, 1, 0.05};
  return {6, 8, 4, 8192, 8, 0.75};
}

std::string grid_name(int g) { return "field" + std::to_string(g); }
csg::real_t grid_scale(int g) { return 1 + csg::real_t{0.25} * g; }

/// Per-repetition build costs, summed over the grids.
struct BuildCosts {
  double sample_s = 0, hierarchize_s = 0, save_s = 0, load_s = 0;
  std::vector<double> registry_add_us;
  std::uint64_t bytes = 0;
};

/// One complete serving stack. Members are declared so that destruction
/// runs client connections -> server -> listeners -> service -> registry.
struct Stack {
  std::vector<csg::CompactStorage> originals;  ///< hierarchized, for refs
  std::vector<csg::CompactStorage> nodal;      ///< sampled values (traced)
  std::vector<std::string> saved;              ///< io::save output per grid
  csg::serve::GridRegistry registry;
  std::unique_ptr<csg::serve::EvalService> service;
  std::unique_ptr<csg::net::TcpListener> tcp;
  std::unique_ptr<csg::net::LoopbackListener> loopback;
  std::unique_ptr<csg::net::NetServer> server;
  std::vector<std::unique_ptr<ByteStream>> streams;              // point_stream
  std::vector<std::unique_ptr<csg::net::NetClient>> clients;     // bulk_frames

  ~Stack() {
    clients.clear();
    for (auto& s : streams) s->shutdown();
    streams.clear();
    if (server) server->stop();
    if (service) service->stop();
  }
};

enum class Kind { kPointStream, kBulkFrames };

/// Sample, hierarchize, save/load and register every grid, then start the
/// service and server and connect the generator's connections.
std::unique_ptr<Stack> build_stack(const Shape& shape, Kind kind,
                                   int connections, bool keep_nodal,
                                   BuildCosts& costs, Tracer::Buffer* buf) {
  auto st = std::make_unique<Stack>();
  for (int g = 0; g < shape.grids; ++g) {
    csg::CompactStorage s(shape.d, shape.n);
    auto t0 = Clock::now();
    {
      Span sp(buf, SpanName::kCoreSample);
      sample_field(s, grid_scale(g));
    }
    costs.sample_s += seconds_since(t0);
    if (keep_nodal) st->nodal.push_back(s);
    t0 = Clock::now();
    {
      Span sp(buf, SpanName::kCoreHierarchize);
      csg::hierarchize(s);
    }
    costs.hierarchize_s += seconds_since(t0);
    t0 = Clock::now();
    {
      Span sp(buf, SpanName::kIoSave);
      std::ostringstream os;
      csg::io::save(s, os);
      st->saved.push_back(os.str());
    }
    costs.save_s += seconds_since(t0);
    costs.bytes += st->saved.back().size();
    t0 = Clock::now();
    std::istringstream is(st->saved.back());
    csg::CompactStorage loaded = [&] {
      Span sp(buf, SpanName::kIoLoad);
      return csg::io::load(is);
    }();
    costs.load_s += seconds_since(t0);
    t0 = Clock::now();
    {
      Span sp(buf, SpanName::kServeRegistryAdd);
      st->registry.add(grid_name(g), std::move(loaded));
    }
    costs.registry_add_us.push_back(seconds_since(t0) * 1e6);
    st->originals.push_back(std::move(s));
  }
  csg::serve::ServiceOptions sopts;
  // Room for every point bulk_frames can have in flight (4 x 4 x 256) in
  // one shard, so no workload is shed by admission control.
  sopts.queue_capacity = 4096;
  st->service = std::make_unique<csg::serve::EvalService>(st->registry, sopts);
  csg::net::Listener* listener = nullptr;
  if (kind == Kind::kPointStream) {
    st->tcp = std::make_unique<csg::net::TcpListener>(0);
    listener = st->tcp.get();
  } else {
    st->loopback = std::make_unique<csg::net::LoopbackListener>();
    listener = st->loopback.get();
  }
  st->server = std::make_unique<csg::net::NetServer>(*listener, st->registry,
                                                     *st->service);
  st->server->start();
  for (int c = 0; c < connections; ++c) {
    if (kind == Kind::kPointStream)
      st->streams.push_back(csg::net::tcp_connect("127.0.0.1", st->tcp->port()));
    else
      st->clients.push_back(
          std::make_unique<csg::net::NetClient>(st->loopback->connect()));
  }
  return st;
}

/// A served value awaiting verification against the reference of pool
/// point `index`.
struct Served {
  std::size_t index;
  std::uint8_t status;
  csg::real_t value;
};

/// Read one eval response frame from a raw stream. False on end of stream
/// or any framing/decoding error.
bool read_response(ByteStream& s, csg::net::EvalResponse& resp,
                   std::uint64_t& bytes) {
  const csg::net::ProtocolLimits limits;
  std::uint8_t hdr[csg::net::kFrameHeaderBytes];
  if (!csg::net::read_exact(s, hdr, sizeof hdr)) return false;
  csg::net::FrameHeader h;
  if (csg::net::decode_header(hdr, h, limits) != csg::net::WireError::kNone ||
      h.type != csg::net::MsgType::kEvalResponse)
    return false;
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(h.payload_bytes));
  if (!csg::net::read_exact(s, payload.data(), payload.size())) return false;
  bytes += sizeof hdr + payload.size();
  return csg::net::decode_eval_response(payload, resp, limits) ==
         csg::net::WireError::kNone;
}

std::vector<std::uint8_t> eval_frame(std::uint64_t id, const std::string& grid,
                                     const csg::CoordVector& x) {
  csg::net::EvalRequest req;
  req.id = id;
  req.grid = grid;
  req.points.push_back(x);
  return csg::net::encode_eval_request(req);
}

/// Service, network, kernel and plan-cache counters, snapshotted around a
/// timed phase so ratios come from deltas.
struct Counters {
  csg::serve::ServiceStats serve;
  csg::net::NetServerStats net;
  csg::SoaKernelStats soa;
  csg::EvaluationPlan::SharedCacheStats plans;
};

Counters snapshot(const Stack& st) {
  return {st.service->stats(), st.server->stats(), csg::soa_kernel_stats(),
          csg::EvaluationPlan::shared_cache_stats()};
}

std::uint64_t max_queue_depth(const csg::serve::ServiceStats& s) {
  std::uint64_t m = 0;
  for (const auto& sh : s.shards) m = std::max(m, sh.max_queue_depth);
  return m;
}

/// What the generator saw in one timed phase, the ground truth the
/// counters are reconciled against.
struct Phase {
  double seconds = 0;
  std::uint64_t units = 0;        ///< requests (point_stream) or frames
  std::uint64_t points_planned = 0;  ///< points the schedule asked for
  std::uint64_t points_sent = 0;
  std::uint64_t status_ok = 0;    ///< points the server answered kOk
  std::uint64_t verified = 0;     ///< kOk and equal to the reference
  std::uint64_t bytes_sent = 0, bytes_received = 0;
  std::vector<double> start_s;          ///< per unit, from phase start
  std::vector<double> latency_us;       ///< per unit; failures are +inf
  std::vector<double> completion_s, completion_pts;
  std::vector<double> lag_us;           ///< point_stream sender lateness
  std::vector<double> submit_us, wait_us;
  std::vector<double> registry_add_us;  ///< reloads during the phase
  std::uint64_t reloads = 0;
  std::uint64_t reload_mismatches = 0;
  Counters before, after;
};

double p50(const std::vector<double>& v) { return csg::bench::median_of(v); }
double p99(const std::vector<double>& v) { return percentile(v, 0.99); }
double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

/// Poisson arrival times (seconds from phase start) at `rate` per second.
std::vector<double> arrivals(double rate, double seconds, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  std::vector<double> due;
  for (double t = gap(rng); t < seconds; t += gap(rng)) due.push_back(t);
  return due;
}

/// Replace one grid every kReloadPeriodS, in the middle of each period,
/// until `end`: io::load of the saved bytes, then GridRegistry::add with the
/// identical coefficients.
void reload_loop(Stack& st, Clock::time_point start, Clock::time_point end,
                 Phase& ph, Tracer& tracer, Tracer::Buffer* buf) {
  for (std::uint64_t r = 1;; ++r) {
    const auto due = after(start, kReloadPeriodS * (static_cast<double>(r) - 0.5));
    if (due >= end) break;
    std::this_thread::sleep_until(due);
    const int g = static_cast<int>(r % st.saved.size());
    Span root(live(tracer, buf), SpanName::kGenReload);
    std::istringstream is(st.saved[static_cast<std::size_t>(g)]);
    csg::CompactStorage loaded = [&] {
      Span sp(live(tracer, buf), SpanName::kIoLoad, 0, root.id());
      return csg::io::load(is);
    }();
    if (!same_grid(loaded, st.originals[static_cast<std::size_t>(g)]))
      ++ph.reload_mismatches;
    const auto t0 = Clock::now();
    {
      Span sp(live(tracer, buf), SpanName::kServeRegistryAdd, 0, root.id());
      st.registry.add(grid_name(g), std::move(loaded));
    }
    ph.registry_add_us.push_back(seconds_since(t0) * 1e6);
    ++ph.reloads;
  }
}

// --------------------------------------------------------------------------
// point_stream
// --------------------------------------------------------------------------

/// One connection's share of the open-loop schedule.
struct Lane {
  std::vector<double> due;                         ///< seconds from start
  std::vector<std::size_t> index;                  ///< pool point per request
  std::vector<std::vector<std::uint8_t>> frames;   ///< pre-encoded requests
};

std::vector<Lane> plan_lanes(int connections, double seconds,
                             std::uint64_t seed, std::size_t pool, int grids,
                             const std::vector<csg::CoordVector>& points,
                             bool encode) {
  std::vector<Lane> lanes(static_cast<std::size_t>(connections));
  for (int c = 0; c < connections; ++c) {
    Lane& ln = lanes[static_cast<std::size_t>(c)];
    ln.due = arrivals(kStreamRate / connections, seconds,
                      mix_seed(seed, static_cast<std::uint64_t>(c)));
    for (std::size_t k = 0; k < ln.due.size(); ++k) {
      const std::size_t i =
          (k * static_cast<std::size_t>(connections) + static_cast<std::size_t>(c)) %
          pool;
      ln.index.push_back(i);
      if (encode)
        ln.frames.push_back(eval_frame(k + 1, grid_name(static_cast<int>(i) % grids),
                                       points[i]));
    }
  }
  return lanes;
}

std::uint64_t request_id(int conn, std::size_t k) {
  return (static_cast<std::uint64_t>(conn) + 1) << 32 | (k + 1);
}

/// Per-lane receive tallies merged into the Phase after the join.
struct LaneResult {
  std::uint64_t status_ok = 0, verified = 0;
  std::uint64_t bytes_sent = 0, bytes_received = 0, sent = 0;
  std::vector<double> start_s, latency_us, completion_s, lag_us, submit_us,
      wait_us;
};

void merge(Phase& ph, const LaneResult& r) {
  ph.status_ok += r.status_ok;
  ph.verified += r.verified;
  ph.bytes_sent += r.bytes_sent;
  ph.bytes_received += r.bytes_received;
  ph.points_sent += r.sent;
  const auto append = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(ph.start_s, r.start_s);
  append(ph.latency_us, r.latency_us);
  append(ph.completion_s, r.completion_s);
  append(ph.lag_us, r.lag_us);
  append(ph.submit_us, r.submit_us);
  append(ph.wait_us, r.wait_us);
}

/// Wait for the receivers, giving up `grace` after the last due time: a
/// response that never comes then counts as failed instead of hanging.
void join_receivers(std::vector<std::thread>& receivers,
                    std::atomic<int>& done, Clock::time_point give_up,
                    const std::function<void()>& unblock) {
  while (done.load() < static_cast<int>(receivers.size()) &&
         Clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  if (done.load() < static_cast<int>(receivers.size())) unblock();
  for (auto& t : receivers) t.join();
}

/// The point_stream timed phase over the network: per connection a sender
/// writing pre-encoded frames at their due times and a receiver reading
/// and verifying responses. Reloads run on the calling thread.
Phase stream_net_phase(Stack& st, const Shape& shape, double seconds,
                       std::uint64_t seed,
                       const std::vector<csg::CoordVector>& pool,
                       const std::vector<csg::real_t>& refs, Tracer& tracer,
                       std::vector<Tracer::Buffer*>& bufs) {
  const int conns = static_cast<int>(st.streams.size());
  std::vector<Lane> lanes =
      plan_lanes(conns, seconds, seed, pool.size(), shape.grids, pool, true);
  std::vector<LaneResult> res(static_cast<std::size_t>(conns));
  Phase ph;
  ph.seconds = seconds;
  for (const Lane& ln : lanes) ph.units += ln.due.size();
  ph.before = snapshot(st);
  std::atomic<int> receivers_done{0};
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> senders, receivers;
  for (int c = 0; c < conns; ++c) {
    const auto ci = static_cast<std::size_t>(c);
    senders.emplace_back([&, c, ci] {
      Tracer::Buffer* buf = live(tracer, bufs[2 * ci]);
      const Lane& ln = lanes[ci];
      LaneResult& r = res[ci];
      r.lag_us.reserve(ln.due.size());
      for (std::size_t k = 0; k < ln.due.size(); ++k) {
        const auto due = after(start, ln.due[k]);
        std::this_thread::sleep_until(due);
        const auto t0 = Clock::now();
        r.lag_us.push_back(us_between(due, t0));
        bool ok = false;
        {
          const std::uint64_t req = request_id(c, k);
          Span sp(buf, SpanName::kNetWriteFrame, req, root_span_id(req));
          ok = st.streams[ci]->write_all(ln.frames[k].data(), ln.frames[k].size());
        }
        r.submit_us.push_back(us_between(t0, Clock::now()));
        if (!ok) break;
        ++r.sent;
        r.bytes_sent += ln.frames[k].size();
      }
    });
    receivers.emplace_back([&, c, ci] {
      Tracer::Buffer* buf = live(tracer, bufs[2 * ci + 1]);
      const Lane& ln = lanes[ci];
      LaneResult& r = res[ci];
      r.latency_us.reserve(ln.due.size());
      for (std::size_t k = 0; k < ln.due.size(); ++k) {
        const std::uint64_t req = request_id(c, k);
        csg::net::EvalResponse resp;
        const auto t0 = Clock::now();
        bool ok = false;
        {
          Span sp(buf, SpanName::kNetReadFrame, req, root_span_id(req));
          ok = read_response(*st.streams[ci], resp, r.bytes_received);
        }
        const auto done = Clock::now();
        r.wait_us.push_back(us_between(t0, done));
        if (!ok || resp.id != k + 1 || resp.results.size() != 1) break;
        const auto due = after(start, ln.due[k]);
        const auto& pr = resp.results[0];
        const bool status_ok = pr.status == static_cast<std::uint8_t>(Status::kOk);
        const bool good = status_ok && same_value(pr.value, refs[ln.index[k]]);
        const double lat = us_between(due, done);
        r.status_ok += status_ok;
        r.verified += good;
        r.start_s.push_back(ln.due[k]);
        r.latency_us.push_back(good ? lat : INFINITY);
        if (good) r.completion_s.push_back(us_between(start, done) / 1e6);
        if (buf)
          buf->record(SpanName::kGenRequest, root_span_id(req), 0, req, due, done);
      }
      receivers_done.fetch_add(1);
    });
  }
  reload_loop(st, start, after(start, seconds), ph,
              tracer, live(tracer, bufs.back()));
  for (auto& t : senders) t.join();
  join_receivers(receivers, receivers_done, Clock::now() + std::chrono::seconds(5),
                 [&] {
                   for (auto& s : st.streams) s->shutdown();
                 });
  for (std::size_t c = 0; c < res.size(); ++c) {
    // Requests never answered count as failures at +inf latency.
    for (std::size_t k = res[c].latency_us.size(); k < lanes[c].due.size(); ++k) {
      res[c].start_s.push_back(lanes[c].due[k]);
      res[c].latency_us.push_back(INFINITY);
    }
    merge(ph, res[c]);
  }
  ph.points_planned = ph.units;
  ph.completion_pts.assign(ph.completion_s.size(), 1.0);
  return ph;
}

/// The serve rung of point_stream: the same open-loop schedule submitted
/// straight to EvalService::submit, futures waited on in order. No net.
Phase stream_serve_phase(Stack& st, const Shape& shape, double seconds,
                         std::uint64_t seed,
                         const std::vector<csg::CoordVector>& pool,
                         const std::vector<csg::real_t>& refs, int conns,
                         Tracer& tracer, std::vector<Tracer::Buffer*>& bufs) {
  std::vector<Lane> lanes =
      plan_lanes(conns, seconds, seed, pool.size(), shape.grids, pool, false);
  std::vector<LaneResult> res(static_cast<std::size_t>(conns));
  Phase ph;
  ph.seconds = seconds;
  for (const Lane& ln : lanes) ph.units += ln.due.size();
  ph.before = snapshot(st);
  std::vector<std::vector<std::future<csg::serve::EvalResult>>> futs(
      static_cast<std::size_t>(conns));
  std::vector<std::atomic<std::size_t>> published(static_cast<std::size_t>(conns));
  for (int c = 0; c < conns; ++c)
    futs[static_cast<std::size_t>(c)].resize(lanes[static_cast<std::size_t>(c)].due.size());
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    const auto ci = static_cast<std::size_t>(c);
    threads.emplace_back([&, c, ci] {
      Tracer::Buffer* buf = live(tracer, bufs[2 * ci]);
      const Lane& ln = lanes[ci];
      LaneResult& r = res[ci];
      for (std::size_t k = 0; k < ln.due.size(); ++k) {
        const auto due = after(start, ln.due[k]);
        std::this_thread::sleep_until(due);
        const std::uint64_t req = request_id(c, k);
        const std::size_t i = ln.index[k];
        const auto t0 = Clock::now();
        {
          Span sp(buf, SpanName::kServeSubmit, req, root_span_id(req));
          futs[ci][k] = st.service->submit(grid_name(static_cast<int>(i) % shape.grids),
                                           pool[i]);
        }
        r.submit_us.push_back(us_between(t0, Clock::now()));
        ++r.sent;
        published[ci].store(k + 1, std::memory_order_release);
        published[ci].notify_one();
      }
    });
    threads.emplace_back([&, c, ci] {
      Tracer::Buffer* buf = live(tracer, bufs[2 * ci + 1]);
      const Lane& ln = lanes[ci];
      LaneResult& r = res[ci];
      for (std::size_t k = 0; k < ln.due.size(); ++k) {
        for (std::size_t seen = published[ci].load(std::memory_order_acquire);
             seen <= k; seen = published[ci].load(std::memory_order_acquire))
          published[ci].wait(seen);
        const std::uint64_t req = request_id(c, k);
        csg::serve::EvalResult out;
        {
          Span sp(buf, SpanName::kServeWait, req, root_span_id(req));
          out = futs[ci][k].get();
        }
        const auto done = Clock::now();
        const auto due = after(start, ln.due[k]);
        const bool good =
            out.status == Status::kOk && same_value(out.value, refs[ln.index[k]]);
        r.status_ok += out.status == Status::kOk;
        r.verified += good;
        r.start_s.push_back(ln.due[k]);
        r.latency_us.push_back(good ? us_between(due, done) : INFINITY);
        if (buf)
          buf->record(SpanName::kGenRequest, root_span_id(req), 0, req, due, done);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const LaneResult& r : res) merge(ph, r);
  ph.after = snapshot(st);
  return ph;
}

// --------------------------------------------------------------------------
// bulk_frames
// --------------------------------------------------------------------------

/// Frame slices of the pool: slice s holds pool points [s*256, (s+1)*256),
/// all of grid s % G (pool point i belongs to grid i % G, so the slice's
/// points are taken with stride G).
struct Slices {
  std::vector<std::vector<csg::CoordVector>> points;
  std::vector<std::vector<std::size_t>> index;
};

Slices make_slices(const std::vector<csg::CoordVector>& pool, int grids) {
  Slices s;
  const std::size_t per_grid = pool.size() / static_cast<std::size_t>(grids);
  const std::size_t per_grid_slices = per_grid / kFramePoints;
  for (std::size_t j = 0; j < per_grid_slices; ++j)
    for (int g = 0; g < grids; ++g) {
      std::vector<csg::CoordVector> pts;
      std::vector<std::size_t> idx;
      for (std::size_t k = 0; k < kFramePoints; ++k) {
        const std::size_t i = (j * kFramePoints + k) * static_cast<std::size_t>(grids) +
                              static_cast<std::size_t>(g);
        pts.push_back(pool[i]);
        idx.push_back(i);
      }
      s.points.push_back(std::move(pts));
      s.index.push_back(std::move(idx));
    }
  return s;
}

/// Closed loop shared by the net phase and its serve rung: each of the
/// generator threads keeps kFramesInFlight frames outstanding. `submit`
/// starts a frame, `collect` finishes the oldest and returns its per-point
/// (status, value) pairs.
struct FrameOps {
  std::function<void(int client, std::size_t slice, std::uint64_t req)> submit;
  std::function<std::vector<std::pair<std::uint8_t, csg::real_t>>(
      int client, std::uint64_t req)>
      collect;
};

Phase bulk_phase(Stack& st, double seconds,
                 const Slices& slices, const std::vector<csg::real_t>& refs,
                 int clients, const FrameOps& ops, bool net_counters) {
  Phase ph;
  ph.seconds = seconds;
  if (net_counters) ph.before = snapshot(st);
  std::vector<LaneResult> res(static_cast<std::size_t>(clients));
  std::vector<std::uint64_t> frames(static_cast<std::size_t>(clients), 0);
  std::vector<std::vector<std::pair<double, double>>> done_at(
      static_cast<std::size_t>(clients));
  const auto start = Clock::now();
  const auto end = after(start, seconds);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    const auto ci = static_cast<std::size_t>(c);
    threads.emplace_back([&, c, ci] {
      LaneResult& r = res[ci];
      std::deque<std::tuple<std::uint64_t, std::size_t, Clock::time_point>> out;
      std::size_t next = ci * slices.points.size() / static_cast<std::size_t>(clients);
      std::uint64_t k = 0;
      try {
        while (true) {
          const bool open = Clock::now() < end;
          if (open && out.size() < kFramesInFlight) {
            const std::size_t s = next++ % slices.points.size();
            const std::uint64_t req = request_id(c, k++);
            const auto t0 = Clock::now();
            ops.submit(c, s, req);
            r.submit_us.push_back(us_between(t0, Clock::now()));
            out.emplace_back(req, s, t0);
            r.sent += kFramePoints;
            ++frames[ci];
            continue;
          }
          if (out.empty()) break;
          const auto [req, s, t0] = out.front();
          const auto t1 = Clock::now();
          const auto got = ops.collect(c, req);
          const auto done = Clock::now();
          r.wait_us.push_back(us_between(t1, done));
          out.pop_front();
          std::uint64_t good = 0;
          for (std::size_t p = 0; p < got.size(); ++p) {
            r.status_ok += got[p].first == static_cast<std::uint8_t>(Status::kOk);
            good += got[p].first == static_cast<std::uint8_t>(Status::kOk) &&
                    same_value(got[p].second, refs[slices.index[s][p]]);
          }
          r.verified += good;
          const double lat = us_between(t0, done);
          const bool all_good = good == kFramePoints && got.size() == kFramePoints;
          r.start_s.push_back(us_between(start, t0) / 1e6);
          r.latency_us.push_back(all_good ? lat : INFINITY);
          done_at[ci].emplace_back(us_between(start, done) / 1e6,
                                   static_cast<double>(good));
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "e2ebench: client %d: %s\n", c, e.what());
        for (const auto& [req, s, t0] : out) {
          r.start_s.push_back(us_between(start, t0) / 1e6);
          r.latency_us.push_back(INFINITY);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t c = 0; c < res.size(); ++c) {
    merge(ph, res[c]);
    ph.units += frames[c];
    for (const auto& [t, n] : done_at[c]) {
      ph.completion_s.push_back(t);
      ph.completion_pts.push_back(n);
    }
  }
  ph.points_planned = ph.points_sent;
  if (net_counters) ph.after = snapshot(st);
  return ph;
}

// --------------------------------------------------------------------------
// Shared by both serving workloads
// --------------------------------------------------------------------------

/// Poll until the server-side counters have caught up with what the
/// generator saw (byte counters are bumped after the write completes).
Counters settled(const Stack& st, const Phase& ph) {
  Counters c = snapshot(st);
  for (int i = 0; i < 200; ++i) {
    if (c.net.bytes_out - ph.before.net.bytes_out >= ph.bytes_received &&
        c.serve.completed - ph.before.serve.completed >= ph.status_ok)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    c = snapshot(st);
  }
  return c;
}

/// Fail the run when the counters disagree with the generator's ledger.
void reconcile(const Phase& ph, bool point_stream, Outcome& out) {
  const auto& b = ph.before;
  const auto& a = ph.after;
  const auto d = [](std::uint64_t x, std::uint64_t y) { return x - y; };
  const auto eq = [&](const char* what, std::uint64_t got, std::uint64_t want) {
    out.require(got == want, std::string("counter mismatch: ") + what + " = " +
                                 std::to_string(got) + ", generator saw " +
                                 std::to_string(want));
  };
  eq("net.eval_points", d(a.net.eval_points, b.net.eval_points), ph.points_sent);
  eq("net.frames_decoded", d(a.net.frames_decoded, b.net.frames_decoded),
     point_stream ? ph.points_sent : ph.units);
  eq("net.frames_rejected", d(a.net.frames_rejected, b.net.frames_rejected), 0);
  if (point_stream) {
    eq("net.bytes_in", d(a.net.bytes_in, b.net.bytes_in), ph.bytes_sent);
    eq("net.bytes_out", d(a.net.bytes_out, b.net.bytes_out), ph.bytes_received);
  }
  eq("serve.submitted", d(a.serve.submitted, b.serve.submitted), ph.points_sent);
  eq("serve.completed", d(a.serve.completed, b.serve.completed), ph.status_ok);
  eq("serve.batched_points", d(a.serve.batched_points, b.serve.batched_points),
     d(a.serve.completed, b.serve.completed));
  eq("plan_cache.hits", d(a.plans.hits, b.plans.hits), ph.reloads);
  eq("plan_cache.misses", d(a.plans.misses, b.plans.misses), 0);
  const std::uint64_t lanes = d(a.soa.lanes, b.soa.lanes);
  const std::uint64_t pts = d(a.serve.batched_points, b.serve.batched_points);
  out.require(lanes <= pts && pts <= 8 * lanes,
              "counter mismatch: soa lanes " + std::to_string(lanes) +
                  " cannot hold " + std::to_string(pts) + " points");
}

/// Set-up record over the repetitions; the last stack built is kept.
/// Half of the set-ups run before the timed phase and half after it, so
/// the reported statistics sample the host across the whole run rather than
/// its first seconds.
struct Setup {
  std::unique_ptr<Stack> stack;
  std::vector<double> setup_s, build_s, sample_s, hierarchize_s, save_s,
      load_s, registry_add_us;
  std::uint64_t io_bytes = 0;
  std::vector<Served> warmup;
};

/// Run shape.setup_reps complete set-ups, appending their costs to `su`;
/// the last stack built replaces su.stack.
void setup_serving(const Options& opts, const Shape& shape, Kind kind,
                   int connections, const std::vector<csg::CoordVector>& pool,
                   Tracer::Buffer* buf, Setup& su) {
  const std::size_t warm_base = pool.size() / 2;
  for (int rep = 0; rep < shape.setup_reps; ++rep) {
    su.stack.reset();
    BuildCosts bc;
    const auto t0 = Clock::now();
    auto st = build_stack(shape, kind, connections, opts.trace, bc, buf);
    // Warm-up: a few requests per connection so thread pools, arenas and
    // the plan cache are hot before the first timed request.
    if (kind == Kind::kPointStream) {
      constexpr std::size_t kWarm = 64;
      for (std::size_t c = 0; c < st->streams.size(); ++c) {
        for (std::size_t k = 0; k < kWarm; ++k) {
          const std::size_t i = (warm_base + c * kWarm + k) % pool.size();
          const auto f = eval_frame(k + 1, grid_name(static_cast<int>(i) % shape.grids),
                                    pool[i]);
          if (!st->streams[c]->write_all(f.data(), f.size()))
            throw std::runtime_error("warm-up write failed");
        }
        std::uint64_t bytes = 0;
        for (std::size_t k = 0; k < kWarm; ++k) {
          csg::net::EvalResponse resp;
          if (!read_response(*st->streams[c], resp, bytes) || resp.results.size() != 1)
            throw std::runtime_error("warm-up read failed");
          su.warmup.push_back({(warm_base + c * kWarm + k) % pool.size(),
                               resp.results[0].status,
                               resp.results[0].value});
        }
      }
    } else {
      const Slices warm = make_slices(
          std::vector<csg::CoordVector>(pool.begin() + static_cast<std::ptrdiff_t>(warm_base),
                                        pool.begin() + static_cast<std::ptrdiff_t>(warm_base) +
                                            static_cast<std::ptrdiff_t>(kFramePoints) * shape.grids),
          shape.grids);
      for (auto& cl : st->clients)
        for (std::size_t s = 0; s < warm.points.size(); ++s) {
          const auto resp = cl->evaluate_batch(grid_name(static_cast<int>(s) % shape.grids),
                                               warm.points[s]);
          for (std::size_t p = 0; p < resp.results.size(); ++p)
            su.warmup.push_back({warm_base + warm.index[s][p], resp.results[p].status,
                                 resp.results[p].value});
        }
    }
    su.setup_s.push_back(seconds_since(t0));
    su.build_s.push_back(bc.hierarchize_s + bc.save_s);
    su.sample_s.push_back(bc.sample_s);
    su.hierarchize_s.push_back(bc.hierarchize_s);
    su.save_s.push_back(bc.save_s);
    su.load_s.push_back(bc.load_s);
    su.registry_add_us.insert(su.registry_add_us.end(), bc.registry_add_us.begin(),
                              bc.registry_add_us.end());
    su.io_bytes = bc.bytes;
    su.stack = std::move(st);
  }
}

std::vector<const csg::CompactStorage*> pointers(
    const std::vector<csg::CompactStorage>& v) {
  std::vector<const csg::CompactStorage*> p;
  for (const auto& s : v) p.push_back(&s);
  return p;
}

/// Checks that do not depend on the timed phase: the io round trip of every
/// registered grid and every warm-up answer.
void verify_setup(const Setup& su, const std::vector<csg::real_t>& refs,
                  Outcome& out) {
  const Stack& st = *su.stack;
  for (std::size_t g = 0; g < st.originals.size(); ++g) {
    const auto entry = st.registry.find(grid_name(static_cast<int>(g)));
    out.require(entry && same_grid(entry->storage, st.originals[g]),
                "io round trip changed grid " + grid_name(static_cast<int>(g)));
  }
  std::uint64_t bad = 0;
  for (const Served& s : su.warmup)
    bad += s.status != static_cast<std::uint8_t>(Status::kOk) ||
           !same_value(s.value, refs[s.index]);
  out.require(bad == 0, std::to_string(bad) + " warm-up answers were wrong");
}

/// End-to-end metrics of a serving phase; `limit_us` is the on-time limit
/// of one unit (request or frame).
void report_e2e(const Setup& su, const Phase& ph, double limit_us, Outcome& out) {
  const double attempted = static_cast<double>(ph.points_planned);
  out.attempted = ph.points_planned;
  out.failed = ph.points_planned - ph.verified;
  out.e2e("setup_s", csg::bench::median_of(su.setup_s), "s");
  out.e2e("throughput_pts_s",
          completed_rate(ph.completion_s, ph.completion_pts, ph.seconds),
          "pts/s");
  const LatencyFigures wl =
      latency_figures(ph.start_s, ph.latency_us, ph.seconds, kWindowS, limit_us);
  out.e2e("latency_p50_us", wl.p50_us, "us");
  out.e2e("latency_p99_us", wl.p99_us, "us");
  out.e2e("on_time_share", wl.on_time_share, "share");
  out.e2e("ok_share", static_cast<double>(ph.verified) / std::max(attempted, 1.0),
          "share");
  out.e2e("build_s", interquartile_mean(su.build_s), "s");
  out.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  std::fprintf(stderr,
               "e2ebench: %llu units, %llu points, %llu verified, latency "
               "samples %zu (p99 has %zu beyond)\n",
               static_cast<unsigned long long>(ph.units),
               static_cast<unsigned long long>(ph.points_sent),
               static_cast<unsigned long long>(ph.verified), ph.latency_us.size(),
               ph.latency_us.size() / 100);
}

/// Per-layer metrics common to both serving workloads. `unit_points` is
/// the points per unit of work (1 request or one 256-point frame).
void report_layers(const Shape& shape, const Setup& su, const Phase& net,
                   const Phase& traced, const Phase& serve_rung,
                   const GridPools& pools, std::size_t unit_points,
                   Tracer& tracer, Tracer::Buffer* buf, Outcome& out) {
  Stack& st = *su.stack;
  const auto& b = net.before;
  const auto& a = net.after;
  const std::uint64_t pts = a.serve.batched_points - b.serve.batched_points;
  const std::uint64_t batches = a.serve.batches_formed - b.serve.batches_formed;
  const double mean_batch =
      batches ? static_cast<double>(pts) / static_cast<double>(batches) : 1.0;
  const std::uint64_t lanes = a.soa.lanes - b.soa.lanes;
  const auto batch = static_cast<std::size_t>(std::max(1.0, std::round(mean_batch)));

  const RungResult core = run_rung(RungKind::kCore, pools, batch, 1, shape.rung_s,
                                   tracer, buf);
  const RungResult par1 = run_rung(RungKind::kParallel, pools, batch,
                                   st.service->options().eval_threads,
                                   shape.rung_s, tracer, buf);
  const RungResult parn = run_rung(RungKind::kParallel, pools, batch, nproc(),
                                   shape.rung_s, tracer, buf);
  out.require(core.mismatches + par1.mismatches + parn.mismatches == 0,
              "kernel ladder values differ from evaluate_span");
  const HierarchizeLadder hl = run_hierarchize_ladder(
      pointers(st.nodal), pointers(st.originals), nproc(), buf);
  out.require(hl.mismatches == 0,
              "hierarchization paths disagree with hierarchize()");

  // Self-time chain per unit of work: net -> serve -> parallel -> core.
  const double batches_per_unit =
      std::max(1.0, static_cast<double>(unit_points) / static_cast<double>(batch));
  const double core_unit_us = core.call_us_p50 * batches_per_unit;
  const double par_unit_us = par1.call_us_p50 * batches_per_unit;
  const double serve_p50 = p50(serve_rung.latency_us);
  const double net_p50 = p50(net.latency_us);

  out.layer("core.lane_fill",
            lanes ? static_cast<double>(pts) / (8.0 * static_cast<double>(lanes)) : 0,
            "share");
  out.layer("core.soa_blocks", static_cast<double>(a.soa.blocks - b.soa.blocks),
            "count");
  out.layer("core.eval_ns_per_pt", core.ns_per_pt, "ns");
  out.layer("core.hierarchize_s", csg::bench::median_of(su.hierarchize_s), "s");
  out.layer("core.hierarchize_poles_s", hl.poles_s, "s");
  out.layer("core.sample_s", csg::bench::median_of(su.sample_s), "s");
  out.layer("core.self_us_p50", core_unit_us, "us");
  out.layer("parallel.eval_ns_per_pt", parn.ns_per_pt, "ns");
  out.layer("parallel.omp_hierarchize_s", hl.omp_s, "s");
  out.layer("parallel.omp_hierarchize_poles_s", hl.omp_poles_s, "s");
  out.layer("parallel.self_us_p50",
            par_unit_us - core_unit_us / st.service->options().eval_threads, "us");
  out.layer("io.save_s", csg::bench::median_of(su.save_s), "s");
  out.layer("io.load_s", csg::bench::median_of(su.load_s), "s");
  out.layer("io.bytes", static_cast<double>(su.io_bytes), "bytes");
  out.layer("serve.request_us_p50", serve_p50, "us");
  out.layer("serve.request_us_p99", p99(serve_rung.latency_us), "us");
  out.layer("serve.submit_us", mean(serve_rung.submit_us), "us");
  out.layer("serve.mean_batch_pts", mean_batch, "pts");
  out.layer("serve.batches", static_cast<double>(batches), "count");
  out.layer("serve.max_queue_depth", static_cast<double>(max_queue_depth(a.serve)),
            "count");
  out.layer("serve.rejected", static_cast<double>(a.serve.rejected - b.serve.rejected),
            "count");
  out.layer("serve.timed_out",
            static_cast<double>(a.serve.timed_out - b.serve.timed_out), "count");
  out.layer("serve.registry_add_us",
            p50(net.registry_add_us.empty() ? su.registry_add_us : net.registry_add_us),
            "us");
  out.layer("serve.plan_cache_hits", static_cast<double>(a.plans.hits - b.plans.hits),
            "count");
  out.layer("serve.plan_cache_misses",
            static_cast<double>(a.plans.misses - b.plans.misses), "count");
  out.layer("serve.self_us_p50", serve_p50 - par_unit_us, "us");
  out.layer("net.submit_us", mean(net.submit_us), "us");
  out.layer("net.collect_wait_us", mean(net.wait_us), "us");
  out.layer("net.overhead_us_p50", net_p50 - serve_p50, "us");
  out.layer("net.bytes_per_pt",
            static_cast<double>((a.net.bytes_in - b.net.bytes_in) +
                                (a.net.bytes_out - b.net.bytes_out)) /
                std::max<double>(1, static_cast<double>(net.points_sent)),
            "bytes");
  out.layer("net.frames", static_cast<double>(a.net.frames_decoded - b.net.frames_decoded),
            "count");
  out.layer("net.pipelined_frames",
            static_cast<double>(a.net.pipelined_frames - b.net.pipelined_frames), "count");
  out.layer("net.inflight_peak", static_cast<double>(a.net.frames_in_flight_peak),
            "count");
  out.layer("net.frames_rejected",
            static_cast<double>(a.net.frames_rejected - b.net.frames_rejected), "count");
  out.layer("trace.overhead_share", net_p50 > 0 ? p50(traced.latency_us) / net_p50 - 1 : 0,
            "share");
  out.layer("core.plan_build_ms", cold_plan_build_ms(st.originals[0].grid(), buf), "ms");
}

}  // namespace

Outcome run_point_stream(const Options& opts, Tracer& tracer) {
  Outcome out;
  const Shape shape = shape_for(opts);
  // A sender and a receiver per connection keep the generator within nproc
  // threads.
  const int conns = std::clamp(nproc() / 2, 1, 4);
  std::vector<Tracer::Buffer*> bufs;
  for (int i = 0; i < 2 * conns + 1; ++i) bufs.push_back(tracer.open_buffer());
  Tracer::Buffer* main_buf = bufs.back();

  const auto pool = csg::workloads::uniform_points(shape.d, shape.pool, mix_seed(opts.seed, 1000));
  Setup su;
  setup_serving(opts, shape, Kind::kPointStream, conns, pool, main_buf, su);
  std::vector<csg::real_t> refs = reference_values(pointers(su.stack->originals), pool);
  if (opts.corrupt_reference) refs[0] = std::nextafter(refs[0], INFINITY);

  // e2e runs time one phase; traced runs split it into an untraced and a
  // traced half so the tracing overhead is measured, not assumed.
  const double net_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  Phase net = stream_net_phase(*su.stack, shape, net_s, mix_seed(opts.seed, 1), pool,
                               refs, tracer, bufs);
  net.after = settled(*su.stack, net);
  reconcile(net, true, out);
  const double lag_p99 = p99(net.lag_us);
  out.require(net.reload_mismatches == 0, "a reloaded grid differs from the saved one");
  std::fprintf(stderr, "e2ebench: send lag p99 %.0f us\n", lag_p99);
  // Latency is timed from each due time, so late sends still show in it;
  // but a generator late by a whole latency limit no longer offers the
  // schedule, and the run is not a measurement of it.
  out.require(lag_p99 <= kStreamLimitUs,
              "generator fell behind: send lag p99 " +
                  std::to_string(static_cast<long long>(lag_p99)) +
                  " us exceeds the latency limit");

  if (opts.trace) {
    tracer.resume();
    Phase traced = stream_net_phase(*su.stack, shape, net_s, mix_seed(opts.seed, 2),
                                    pool, refs, tracer, bufs);
    traced.after = settled(*su.stack, traced);
    reconcile(traced, true, out);
    out.require(traced.verified == traced.points_planned,
                "traced net answers differ from evaluate_span");
    Phase serve_rung = stream_serve_phase(*su.stack, shape, net_s, mix_seed(opts.seed, 3),
                                          pool, refs, conns, tracer, bufs);
    out.require(serve_rung.verified == serve_rung.points_sent,
                "serve rung answers differ from evaluate_span");
    const GridPools pools(pointers(su.stack->originals), pool, refs);
    report_layers(shape, su, net, traced, serve_rung, pools, 1, tracer, main_buf, out);
    out.layer("gen.lag_p99_us", lag_p99, "us");
  } else {
    // The second half of the set-ups; traced runs print no set-up figures.
    setup_serving(opts, shape, Kind::kPointStream, conns, pool, main_buf, su);
  }
  verify_setup(su, refs, out);
  report_e2e(su, net, kStreamLimitUs, out);
  return out;
}

Outcome run_bulk_frames(const Options& opts, Tracer& tracer) {
  Outcome out;
  const Shape shape = shape_for(opts);
  std::vector<Tracer::Buffer*> bufs;
  for (int i = 0; i < kBulkClients + 1; ++i) bufs.push_back(tracer.open_buffer());
  Tracer::Buffer* main_buf = bufs.back();

  const auto pool = csg::workloads::uniform_points(shape.d, shape.pool, mix_seed(opts.seed, 1000));
  Setup su;
  setup_serving(opts, shape, Kind::kBulkFrames, kBulkClients, pool, main_buf, su);
  std::vector<csg::real_t> refs = reference_values(pointers(su.stack->originals), pool);
  if (opts.corrupt_reference) refs[0] = std::nextafter(refs[0], INFINITY);
  Stack& st = *su.stack;
  const Slices slices = make_slices(pool, shape.grids);

  FrameOps net_ops;
  net_ops.submit = [&](int c, std::size_t s, std::uint64_t req) {
    Span sp(live(tracer, bufs[static_cast<std::size_t>(c)]), SpanName::kNetSubmitEval, req,
            root_span_id(req));
    (void)st.clients[static_cast<std::size_t>(c)]->submit_eval(
        grid_name(static_cast<int>(s) % shape.grids), slices.points[s]);
  };
  net_ops.collect = [&](int c, std::uint64_t req) {
    csg::net::EvalResponse resp;
    {
      Span sp(live(tracer, bufs[static_cast<std::size_t>(c)]), SpanName::kNetCollect, req,
              root_span_id(req));
      resp = st.clients[static_cast<std::size_t>(c)]->collect();
    }
    std::vector<std::pair<std::uint8_t, csg::real_t>> got;
    for (const auto& r : resp.results) got.emplace_back(r.status, r.value);
    return got;
  };

  const double net_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  Phase net = bulk_phase(st, net_s, slices, refs, kBulkClients, net_ops, true);
  net.after = settled(st, net);
  reconcile(net, false, out);

  if (opts.trace) {
    tracer.resume();
    Phase traced = bulk_phase(st, net_s, slices, refs, kBulkClients, net_ops, true);
    traced.after = settled(st, traced);
    reconcile(traced, false, out);
    out.require(traced.verified == traced.points_planned,
                "traced net answers differ from evaluate_span");

    // Serve rung: the same closed loop, each frame as 256 EvalService::submit
    // calls whose futures are collected in order. No net.
    std::vector<std::deque<std::vector<std::future<csg::serve::EvalResult>>>> pending(
        kBulkClients);
    FrameOps serve_ops;
    serve_ops.submit = [&](int c, std::size_t s, std::uint64_t req) {
      Span sp(live(tracer, bufs[static_cast<std::size_t>(c)]), SpanName::kServeSubmit, req,
              root_span_id(req));
      std::vector<std::future<csg::serve::EvalResult>> futs;
      futs.reserve(kFramePoints);
      const std::string name = grid_name(static_cast<int>(s) % shape.grids);
      for (const auto& x : slices.points[s]) futs.push_back(st.service->submit(name, x));
      pending[static_cast<std::size_t>(c)].push_back(std::move(futs));
    };
    serve_ops.collect = [&](int c, std::uint64_t req) {
      Span sp(live(tracer, bufs[static_cast<std::size_t>(c)]), SpanName::kServeWait, req,
              root_span_id(req));
      auto& q = pending[static_cast<std::size_t>(c)];
      std::vector<std::pair<std::uint8_t, csg::real_t>> got;
      for (auto& f : q.front()) {
        const auto r = f.get();
        got.emplace_back(static_cast<std::uint8_t>(r.status), r.value);
      }
      q.pop_front();
      return got;
    };
    Phase serve_rung =
        bulk_phase(st, net_s, slices, refs, kBulkClients, serve_ops, false);
    // serve.submit_us is per EvalService::submit call, not per frame.
    for (double& v : serve_rung.submit_us) v /= static_cast<double>(kFramePoints);
    out.require(serve_rung.verified == serve_rung.points_sent,
                "serve rung answers differ from evaluate_span");
    const GridPools pools(pointers(st.originals), pool, refs);
    report_layers(shape, su, net, traced, serve_rung, pools, kFramePoints, tracer, main_buf,
                  out);
    out.layer("gen.lag_p99_us", 0, "us");
  } else {
    // The second half of the set-ups; traced runs print no set-up figures.
    setup_serving(opts, shape, Kind::kBulkFrames, kBulkClients, pool, main_buf, su);
  }
  verify_setup(su, refs, out);
  report_e2e(su, net, kFrameLimitUs, out);
  return out;
}

}  // namespace e2e
