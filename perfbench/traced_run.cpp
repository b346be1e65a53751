#include "traced_run.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "harness/oracle.h"
#include "harness/scenario.h"
#include "rsm/delivery_log.h"
#include "rsm/kvstore.h"
#include "runtime/cluster.h"
#include "workload/client_pool.h"

namespace perfbench {

namespace {

using namespace caesar;
using harness::FaultEvent;
using harness::RunReport;
using harness::Scenario;

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Span names, one per layer boundary run_driver wraps.
enum Layer : std::uint8_t {
  kSetup,
  kLoop,
  kReport,
  kOracle,
  kPropose,
  kOnMessage,
  kTimer,
  kCatchup,
  kProtoOther,
  kSubmit,
  kSend,
  kDeliver,
  kLogRecord,
  kApply,
  kMirror,
  kOnDelivery,
  kRestart,
  kLayerCount
};

constexpr const char* kLayerNames[kLayerCount] = {
    "harness.setup",     "sim.loop",         "harness.report",
    "harness.oracle",    "proto.propose",    "proto.on_message",
    "proto.timer",       "proto.on_catchup", "proto.other",
    "runtime.submit",    "runtime.send",     "runtime.deliver",
    "rsm.log_record",    "rsm.apply",        "harness.mirror",
    "workload.on_delivery", "storage.restart"};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spans kept for the trace file: enough to see every layer at work while
/// keeping the file small enough for Perfetto (about 12 MB).
constexpr std::size_t kMaxSpans = 100000;

/// Wall-time spans with self time: a span's self time is its duration minus
/// the durations of the spans nested directly inside it. Aggregates cover
/// the whole run; the first kMaxSpans spans are kept for the trace file.
class Tracer {
 public:
  struct Agg {
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    std::uint64_t calls = 0;
  };

  Tracer() { spans_.reserve(kMaxSpans); }

  void begin(Layer layer, std::uint16_t tag) {
    stack_.push_back(Frame{layer, tag, now_ns(), 0, ++next_id_});
  }

  void end() {
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = now_ns() - f.start_ns;
    Agg& a = agg_[f.layer];
    a.total_ns += dur;
    a.self_ns += dur - f.child_ns;
    ++a.calls;
    if (f.layer == kOnMessage) {
      auto& m = by_type_[f.tag];
      ++m.first;
      m.second += dur;
    }
    std::uint64_t parent = 0;
    if (!stack_.empty()) {
      stack_.back().child_ns += dur;
      parent = stack_.back().id;
    }
    if (spans_.size() < kMaxSpans) {
      spans_.push_back(Record{f.layer, f.tag, f.start_ns, dur, f.id, parent});
    }
  }

  const Agg& agg(Layer l) const { return agg_[l]; }
  double total_s(Layer l) const { return agg_[l].total_ns * 1e-9; }
  double self_s(Layer l) const { return agg_[l].self_ns * 1e-9; }
  /// Wire type -> handler calls and inclusive nanoseconds.
  using ByType =
      std::unordered_map<std::uint16_t, std::pair<std::uint64_t, std::int64_t>>;
  const ByType& by_type() const { return by_type_; }

  /// Chrome trace-event JSON ("X" complete events, microseconds), which
  /// Perfetto and chrome://tracing open directly. Each event carries its
  /// span id and the id of the span that encloses it.
  bool write_chrome(const std::string& path, std::int64_t origin_ns) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Record& r = spans_[i];
      std::string name = kLayerNames[r.layer];
      if (r.layer == kOnMessage) name += "." + std::to_string(r.tag);
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                    "\"parent\":%llu}}",
                    i == 0 ? "" : ",\n", name.c_str(),
                    (r.start_ns - origin_ns) * 1e-3, r.dur_ns * 1e-3,
                    static_cast<unsigned long long>(r.id),
                    static_cast<unsigned long long>(r.parent));
      out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Frame {
    Layer layer;
    std::uint16_t tag;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::uint64_t id;
  };
  struct Record {
    Layer layer;
    std::uint16_t tag;
    std::int64_t start_ns;
    std::int64_t dur_ns;
    std::uint64_t id;
    std::uint64_t parent;
  };

  std::uint64_t next_id_ = 0;
  std::vector<Frame> stack_;
  std::vector<Record> spans_;
  Agg agg_[kLayerCount];
  ByType by_type_;
};

/// RAII span; a null tracer (timing off) makes it free.
class Span {
 public:
  Span(Tracer* t, Layer layer, std::uint16_t tag = 0) : t_(t) {
    if (t_ != nullptr) t_->begin(layer, tag);
  }
  ~Span() {
    if (t_ != nullptr) t_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
};

// ---------------------------------------------------------------------------
// Forwarding wrappers
// ---------------------------------------------------------------------------

/// State the wrappers share: the tracer (null with timing off) and the
/// counts taken at the same boundaries.
struct Ctx {
  Tracer* tracer = nullptr;
  rt::Cluster* cluster = nullptr;
  std::uint64_t proposals = 0;      // propose + propose_batch calls
  std::uint64_t proposed_cmds = 0;  // commands handed to them
  std::uint64_t frames = 0;         // frames handed to the network layer
  std::uint64_t applies = 0;
  // Frontend accounting.
  std::uint64_t submits = 0;
  std::uint64_t submits_to_crashed = 0;
  std::uint64_t lost_at_crash = 0;
  std::uint64_t all_down_queries = 0;
  std::uint64_t unknown_completions = 0;
  std::unordered_map<ReqId, NodeId> in_flight;

  bool all_down() const {
    for (NodeId i = 0; i < cluster->size(); ++i) {
      if (!cluster->node(i).crashed()) return false;
    }
    return true;
  }
};

/// Forwards every Env call to the node runtime; times sends and timer
/// callbacks and counts frames.
class TracedEnv final : public rt::Env {
 public:
  TracedEnv(rt::Env& inner, Ctx& ctx)
      : inner_(inner), node_(dynamic_cast<rt::Node&>(inner)), ctx_(ctx) {}

  NodeId id() const override { return inner_.id(); }
  std::size_t cluster_size() const override { return inner_.cluster_size(); }
  Time now() const override { return inner_.now(); }
  net::Encoder encoder() override { return inner_.encoder(); }

  void send(NodeId to, std::uint16_t type, net::Encoder body) override {
    if (!node_.crashed()) ++ctx_.frames;
    Span s(ctx_.tracer, kSend);
    inner_.send(to, type, std::move(body));
  }

  void broadcast(std::uint16_t type, net::Encoder body,
                 bool include_self) override {
    if (!node_.crashed()) {
      ctx_.frames += inner_.cluster_size() - (include_self ? 0 : 1);
    }
    Span s(ctx_.tracer, kSend);
    inner_.broadcast(type, std::move(body), include_self);
  }

  sim::EventId set_timer(Time delay, std::function<void()> fn) override {
    if (ctx_.tracer == nullptr) return inner_.set_timer(delay, std::move(fn));
    return inner_.set_timer(delay, [t = ctx_.tracer, fn = std::move(fn)] {
      Span s(t, kTimer);
      fn();
    });
  }

  void cancel_timer(sim::EventId id) override { inner_.cancel_timer(id); }
  Rng& rng() override { return inner_.rng(); }
  void charge_cpu(Time extra) override { inner_.charge_cpu(extra); }
  CmdId fresh_cmd_id() override { return inner_.fresh_cmd_id(); }
  CmdId fresh_batch_id() override { return inner_.fresh_batch_id(); }
  storage::Durability* durability() override { return inner_.durability(); }
  void notify_snapshot_install(const rsm::KvStore& store,
                               std::uint64_t delivered_count) override {
    inner_.notify_snapshot_install(store, delivered_count);
  }

 private:
  rt::Env& inner_;
  rt::Node& node_;
  Ctx& ctx_;
};

/// Hosts the library's protocol instance behind a TracedEnv and times every
/// call the node runtime makes into it, plus its deliveries.
class TracedProtocol final : public rt::Protocol {
 public:
  TracedProtocol(rt::Env& node_env, DeliverFn deliver, Ctx& ctx,
                 const rt::Cluster::ProtocolFactory& inner_factory)
      : Protocol(node_env, {}),
        env_(std::make_unique<TracedEnv>(node_env, ctx)),
        ctx_(ctx) {
    inner_ = inner_factory(
        *env_, [t = ctx.tracer, deliver = std::move(deliver)](
                   const rsm::Command& cmd) {
          Span s(t, kDeliver);
          deliver(cmd);
        });
  }

  void start() override {
    Span s(ctx_.tracer, kProtoOther);
    inner_->start();
  }
  void propose(rsm::Command cmd) override {
    ++ctx_.proposals;
    ++ctx_.proposed_cmds;
    Span s(ctx_.tracer, kPropose);
    inner_->propose(std::move(cmd));
  }
  void propose_batch(std::vector<rsm::Command> cmds) override {
    ++ctx_.proposals;
    ctx_.proposed_cmds += cmds.size();
    Span s(ctx_.tracer, kPropose);
    inner_->propose_batch(std::move(cmds));
  }
  void on_message(NodeId from, std::uint16_t type, net::Decoder& d) override {
    Span s(ctx_.tracer, kOnMessage, type);
    inner_->on_message(from, type, d);
  }
  void on_node_suspected(NodeId peer) override {
    Span s(ctx_.tracer, kProtoOther);
    inner_->on_node_suspected(peer);
  }
  void on_node_recovered(NodeId peer) override {
    Span s(ctx_.tracer, kProtoOther);
    inner_->on_node_recovered(peer);
  }
  void on_recover() override {
    Span s(ctx_.tracer, kProtoOther);
    inner_->on_recover();
  }
  void on_catchup_request(NodeId from, net::Decoder& d) override {
    Span s(ctx_.tracer, kCatchup);
    inner_->on_catchup_request(from, d);
  }
  void on_catchup_reply(NodeId from, net::Decoder& d) override {
    Span s(ctx_.tracer, kCatchup);
    inner_->on_catchup_reply(from, d);
  }
  void on_catchup_snapshot(NodeId from, net::Decoder& d) override {
    Span s(ctx_.tracer, kCatchup);
    inner_->on_catchup_snapshot(from, d);
  }
  void on_restore(storage::RecoveredState& st) override {
    Span s(ctx_.tracer, kProtoOther);
    inner_->on_restore(st);
  }
  std::string_view name() const override { return inner_->name(); }

 private:
  // Declared before inner_: the protocol holds a reference to this Env.
  std::unique_ptr<TracedEnv> env_;
  Ctx& ctx_;
  std::unique_ptr<rt::Protocol> inner_;
};

/// The classic single-cluster frontend (wl::ClusterFrontend's behaviour),
/// timing submissions and tracking every request until it completes, is
/// lost at a crash, or the run ends.
class TracedFrontend final : public wl::Frontend {
 public:
  TracedFrontend(rt::Cluster& cluster, Ctx& ctx)
      : cluster_(cluster), ctx_(ctx) {}

  std::size_t sites() const override { return cluster_.size(); }

  bool crashed(NodeId site) const override {
    const bool down = cluster_.node(site).crashed();
    // With every site down the pool probes each one in turn and then drops
    // the arrival (ClientPool::admit_open_submit).
    if (down && ctx_.all_down()) ++ctx_.all_down_queries;
    return down;
  }

  NodeId submit(NodeId site, rsm::Command cmd) override {
    ++ctx_.submits;
    if (cluster_.node(site).crashed()) {
      ++ctx_.submits_to_crashed;
      return kNoNode;
    }
    const ReqId req = cmd.ops.front().req;
    {
      Span s(ctx_.tracer, kSubmit);
      cluster_.node(site).submit(std::move(cmd));
    }
    ctx_.in_flight.emplace(req, site);
    return site;
  }

 private:
  rt::Cluster& cluster_;
  Ctx& ctx_;
};

/// Counter snapshot at a metrics-window boundary (run_scenario's, plus the
/// driver's request accounting).
struct BoundarySnap {
  stats::ProtocolCounters proto;
  std::uint64_t submitted = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::vector<stats::ProtocolStats::PoolCounts> pools;
  std::uint64_t attempted = 0;
  std::uint64_t shed = 0;
  std::uint64_t in_flight = 0;
};

double pct(double part, double whole) {
  return whole > 0 ? 100.0 * part / whole : 0.0;
}
double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }
double ms(Time us) { return static_cast<double>(us) / 1000.0; }

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  if (dir.empty() || !std::filesystem::exists(dir, ec)) return 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

}  // namespace

std::string check_run(const RunReport& r, const Workload& w) {
  if (!r.consistent) {
    return "run_scenario: two replicas disagree on a per-key order";
  }
  const harness::ConsistencyVerdict v =
      harness::check_cluster_consistency(r, w.oracle);
  return v.ok ? std::string() : "oracle: " + v.detail;
}

std::string fingerprint(const RunReport& r) {
  std::ostringstream os;
  const auto& l = r.total_latency;
  const stats::ProtocolCounters c = r.proto.counters();
  os << "{\"completed\":" << r.completed << ",\"submitted\":" << r.submitted
     << ",\"measured\":" << l.count() << ",\"lat_p50_us\":" << l.percentile(50)
     << ",\"lat_p99_us\":" << l.percentile(99)
     << ",\"lat_p999_us\":" << l.percentile(99.9)
     << ",\"lat_max_us\":" << l.max() << ",\"messages\":" << r.messages
     << ",\"bytes\":" << r.bytes << ",\"fast\":" << c.fast_decisions
     << ",\"slow\":" << c.slow_decisions << ",\"retries\":" << c.retries
     << ",\"slow_proposals\":" << c.slow_proposals
     << ",\"recoveries\":" << c.recoveries << ",\"waits\":" << c.waits
     << ",\"catchup_requests\":" << c.catchup_requests
     << ",\"catchup_chunks\":" << c.catchup_chunks
     << ",\"catchup_commands\":" << c.catchup_commands
     << ",\"revocations\":" << c.revocations
     << ",\"wal_appends\":" << c.wal_appends << ",\"fsyncs\":" << c.fsyncs
     << ",\"snapshots\":" << c.snapshots
     << ",\"truncated_segments\":" << c.truncated_segments
     << ",\"shed\":" << r.flow_control.shed
     << ",\"admitted\":" << r.flow_control.admitted
     << ",\"fd_suspicions\":" << r.fd_suspicions << ",\"windows\":[";
  for (std::size_t i = 0; i < r.windows.size(); ++i) {
    const auto& w = r.windows[i];
    os << (i == 0 ? "" : ",") << "[" << w.completed() << ","
       << w.latency.percentile(99) << "," << w.submitted << "," << w.messages
       << "]";
  }
  os << "]}";
  return os.str();
}

DriverResult run_driver(const Workload& w, const DriverOptions& opt) {
  const std::int64_t t_begin = now_ns();
  const Scenario& s = w.scenario;
  harness::validate_scenario(s);
  if (s.shards.sharded()) {
    throw std::invalid_argument("run_driver runs unsharded scenarios only");
  }

  DriverResult out;
  std::unique_ptr<Tracer> tracer;
  if (opt.timing) tracer = std::make_unique<Tracer>();
  Ctx ctx;
  ctx.tracer = tracer.get();
  auto setup_span = std::make_unique<Span>(ctx.tracer, kSetup);

  // --- the run_scenario body, with every layer call behind a wrapper -------
  const std::size_t n = s.topology.size();
  sim::Simulator sim(s.seed);
  RunReport& result = out.report;
  result.per_node.resize(n);
  result.timeline = stats::TimeSeries(s.timeline_bucket);
  result.sites.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    result.sites.push_back(harness::SiteMetrics{s.topology.site_names[i], {}});
  }
  result.provenance.scenario = s.name;
  result.provenance.protocol = std::string(harness::to_string(s.protocol));
  result.provenance.sites = s.topology.site_names;
  result.provenance.seed = s.seed;
  result.provenance.duration = s.duration;
  result.provenance.warmup = s.warmup;
  result.provenance.build = std::string(harness::build_version());
  result.windows = harness::detail::plan_windows(s);

  std::vector<rsm::DeliveryLog> logs(s.check_consistency ? n : 0);
  std::vector<rsm::KvStore> kvs(n);
  std::vector<std::vector<std::size_t>> marks(s.check_consistency ? n : 0);

  wl::ClientPool* pool_ptr = nullptr;
  rt::ClusterConfig ccfg;
  ccfg.node = s.node;
  ccfg.fd_timeout_us = s.fd_timeout_us;
  ccfg.suspect_partitions = s.fd_suspect_partitions;
  ccfg.storage = s.storage;
  if (s.storage.enabled()) {
    std::filesystem::remove_all(s.storage.data_dir);
    std::filesystem::create_directories(s.storage.data_dir);
  }

  const rt::Cluster::ProtocolFactory inner_factory =
      harness::detail::make_factory(s, result.per_node);
  const rt::Cluster::ProtocolFactory factory =
      [&ctx, &inner_factory](rt::Env& env, rt::Protocol::DeliverFn deliver)
      -> std::unique_ptr<rt::Protocol> {
    return std::make_unique<TracedProtocol>(env, std::move(deliver), ctx,
                                            inner_factory);
  };
  Tracer* const t = ctx.tracer;
  rt::Cluster cluster(
      sim, s.topology, ccfg, factory,
      [&](NodeId node, const rsm::Command& cmd) {
        if (s.check_consistency) {
          Span sp(t, kLogRecord);
          logs[node].record(cmd);
        }
        {
          Span sp(t, kApply);
          kvs[node].apply(cmd);
        }
        ++ctx.applies;
        if (pool_ptr != nullptr) {
          Span sp(t, kOnDelivery);
          pool_ptr->on_delivery(node, cmd);
        }
      });
  ctx.cluster = &cluster;
  if (s.check_consistency) {
    cluster.set_instance_hook([&](NodeId node) {
      Span sp(t, kMirror);
      marks[node].push_back(logs[node].size());
    });
  }

  TracedFrontend front(cluster, ctx);
  wl::ClientPool pool(sim, front, s.workload, sim.rng().fork(), s.phases,
                      s.duration);
  pool_ptr = &pool;

  cluster.set_restart_hook([&](NodeId node,
                               const caesar::storage::RecoveredState& st) {
    Span sp(t, kMirror);
    if (s.check_consistency) {
      if (st.trimmed) {
        logs[node].reset_trimmed();
        marks[node].assign(st.delivered_count - st.log.entries().size(), 0);
        for (const auto& [index, cmd] : st.log.entries()) {
          harness::detail::record_unbundled(logs[node], cmd);
          marks[node].push_back(logs[node].size());
        }
      } else {
        const std::size_t d = st.delivered_count;
        if (d < marks[node].size()) marks[node].resize(d);
        logs[node].truncate(d == 0 ? 0 : marks[node][d - 1]);
      }
    }
    kvs[node] = st.store;
  });
  cluster.set_snapshot_install_hook(
      [&](NodeId node, const rsm::KvStore& store, std::uint64_t delivered) {
        Span sp(t, kMirror);
        if (s.check_consistency) {
          logs[node].reset_trimmed();
          marks[node].assign(delivered, 0);
        }
        kvs[node] = store;
      });

  // Per site: first completion after the disruption (-1 = none yet).
  std::vector<Time> first_after(n, -1);
  std::size_t widx = 0;
  pool.set_completion_hook([&](const wl::Completion& c) {
    if (ctx.in_flight.erase(c.req) == 0) ++ctx.unknown_completions;
    if (first_after[c.site] < 0 && c.complete_time > w.disruption_at) {
      first_after[c.site] = c.complete_time;
    }
    result.timeline.record(c.complete_time);
    if (c.complete_time < s.warmup) return;
    const Time latency = c.complete_time - c.submit_time;
    result.total_latency.record(latency);
    result.sites[c.site].latency.record(latency);
    while (widx + 1 < result.windows.size() &&
           c.complete_time >= result.windows[widx].end) {
      ++widx;
    }
    result.windows[widx].latency.record(latency);
  });

  cluster.start();
  pool.start();

  // Requests in flight at a node die with it (the pool forgets them too).
  auto forget_in_flight = [&ctx](NodeId node) {
    for (auto it = ctx.in_flight.begin(); it != ctx.in_flight.end();) {
      if (it->second == node) {
        ++ctx.lost_at_crash;
        it = ctx.in_flight.erase(it);
      } else {
        ++it;
      }
    }
  };
  Time restart_at = -1;
  for (const FaultEvent& e : s.faults) {
    sim.at(e.at, [&, e] {
      switch (e.kind) {
        case FaultEvent::Kind::kCrash:
          cluster.crash(e.node);
          forget_in_flight(e.node);
          pool.on_node_crashed(e.node);
          break;
        case FaultEvent::Kind::kRecover:
          cluster.recover(e.node);
          pool.on_node_recovered(e.node);
          break;
        case FaultEvent::Kind::kPartition:
          cluster.set_link(e.a, e.b, false);
          break;
        case FaultEvent::Kind::kHeal:
          cluster.set_link(e.a, e.b, true);
          break;
        case FaultEvent::Kind::kPowerLoss:
          for (NodeId i = 0; i < cluster.size(); ++i) {
            if (cluster.node(i).crashed()) continue;
            cluster.crash(i);
            forget_in_flight(i);
            pool.on_node_crashed(i);
          }
          break;
        case FaultEvent::Kind::kRestart: {
          if (restart_at < 0) restart_at = e.at;
          {
            Span sp(t, kRestart);
            cluster.restart(e.node);
          }
          pool.on_node_recovered(e.node);
          break;
        }
      }
    });
  }

  result.samples.reserve(s.sample_stats_at.size());
  for (Time at : s.sample_stats_at) {
    sim.at(at, [&result, &pool, at] {
      result.samples.push_back(harness::StatsSample{
          at, harness::detail::aggregate(result.per_node), pool.completed()});
    });
  }

  auto attempted_now = [&] {
    return ctx.submits + pool.flow_shed() + ctx.all_down_queries / n;
  };
  std::vector<BoundarySnap> snaps(result.windows.size() + 1);
  auto capture = [&](BoundarySnap& snap) {
    snap.proto = harness::detail::aggregate_counters(result.per_node);
    snap.submitted = pool.submitted();
    snap.messages = cluster.network().messages_delivered();
    snap.bytes = cluster.network().bytes_sent();
    snap.pools.resize(result.per_node.size());
    for (std::size_t i = 0; i < result.per_node.size(); ++i) {
      snap.pools[i] = result.per_node[i].pool_counts();
    }
    snap.attempted = attempted_now();
    snap.shed = pool.flow_shed();
    snap.in_flight = ctx.in_flight.size();
  };
  for (std::size_t i = 0; i < result.windows.size(); ++i) {
    sim.at(result.windows[i].begin,
           [&capture, &snaps, i] { capture(snaps[i]); });
  }
  setup_span.reset();

  // --- the run, in 1 ms slices; between slices run_driver samples the node
  // runtimes (no events are scheduled, so the run is unchanged) -------------
  const Time slice = 1 * kMs;
  const Time util_period = 100 * kMs;
  std::vector<Time> busy_mark(n, 0);
  double util_max = 0, util_sum = 0;
  std::uint64_t util_samples = 0;
  std::vector<std::uint32_t> queue_samples;
  std::uint64_t catchup_seen = 0;
  Time last_catchup_at = -1;
  for (Time now = 0; now < s.duration;) {
    now = std::min(now + slice, s.duration);
    {
      Span sp(t, kLoop);
      sim.run_until(now);
    }
    if (now > s.warmup) {
      for (NodeId i = 0; i < n; ++i) {
        if (!cluster.node(i).crashed()) {
          queue_samples.push_back(
              static_cast<std::uint32_t>(cluster.node(i).queue_depth()));
        }
      }
    }
    if (now % util_period == 0 || now == s.duration) {
      for (NodeId i = 0; i < n; ++i) {
        const Time busy = cluster.node(i).cpu_busy_time();
        if (now > s.warmup) {
          const double u = static_cast<double>(busy - busy_mark[i]) /
                           static_cast<double>(util_period);
          util_max = std::max(util_max, u);
          util_sum += u;
          ++util_samples;
        }
        busy_mark[i] = busy;
      }
    }
    if (restart_at >= 0) {
      const std::uint64_t cc =
          harness::detail::aggregate_counters(result.per_node).catchup_commands;
      if (cc != catchup_seen) {
        catchup_seen = cc;
        last_catchup_at = now;
      }
    }
  }

  // --- report assembly, as run_scenario does it ----------------------------
  auto report_span = std::make_unique<Span>(t, kReport);
  capture(snaps.back());
  for (std::size_t i = 0; i < result.windows.size(); ++i) {
    stats::MetricsWindow& win = result.windows[i];
    win.submitted = snaps[i + 1].submitted - snaps[i].submitted;
    win.messages = snaps[i + 1].messages - snaps[i].messages;
    win.bytes = snaps[i + 1].bytes - snaps[i].bytes;
    win.proto = snaps[i + 1].proto - snaps[i].proto;
    for (std::size_t node = 0; node < n; ++node) {
      const auto& from = snaps[i].pools[node];
      const auto& to = snaps[i + 1].pools[node];
      const stats::ProtocolStats& ps = result.per_node[node];
      win.wait_time.merge_range(ps.wait_time, from.wait, to.wait);
      win.propose_phase.merge_range(ps.propose_phase, from.propose, to.propose);
      win.retry_phase.merge_range(ps.retry_phase, from.retry, to.retry);
      win.deliver_phase.merge_range(ps.deliver_phase, from.deliver, to.deliver);
    }
  }
  result.completed = pool.completed();
  result.submitted = pool.submitted();
  const double window_s =
      static_cast<double>(s.duration - s.warmup) / static_cast<double>(kSec);
  result.throughput_tps =
      window_s > 0
          ? static_cast<double>(result.total_latency.count()) / window_s
          : 0.0;
  result.proto = harness::detail::aggregate(result.per_node);
  result.messages = cluster.network().messages_delivered();
  result.bytes = cluster.network().bytes_sent();
  result.fd_suspicions = cluster.fd_suspicions();
  result.fd_retractions = cluster.fd_retractions();
  result.flow_control.enabled = pool.flow_control_enabled();
  result.flow_control.admitted = pool.flow_admitted();
  result.flow_control.deferred = pool.flow_deferred();
  result.flow_control.shed = pool.flow_shed();
  report_span.reset();

  {
    Span sp(t, kOracle);
    if (s.check_consistency) {
      for (std::size_t i = 0; i < n && result.consistent; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
          if (!rsm::consistent_key_orders(logs[i], logs[j])) {
            result.consistent = false;
            break;
          }
        }
      }
      result.delivery_logs = std::move(logs);
      result.stores = std::move(kvs);
      result.crashed_at_end.resize(n);
      for (NodeId i = 0; i < n; ++i) {
        result.crashed_at_end[i] = cluster.node(i).crashed();
      }
    }
    out.detail = check_run(result, w);
  }
  out.wall_s = (now_ns() - t_begin) * 1e-9;

  // --- request accounting ---------------------------------------------------
  Accounting& a = out.acct;
  a.completed = pool.completed();
  a.shed = pool.flow_shed();
  a.dropped_at_crash = ctx.lost_at_crash + ctx.submits_to_crashed;
  a.dropped_no_site = ctx.all_down_queries / n;
  a.in_flight_end = ctx.in_flight.size();
  a.attempted = attempted_now();
  std::string acct_error;
  if (ctx.all_down_queries % n != 0 ||
      (ctx.all_down_queries > 0 && pool.client_count() > 0)) {
    acct_error = "arrivals while every site was down cannot be told apart";
  } else if (ctx.unknown_completions > 0) {
    acct_error = "a completion matched no submitted request";
  } else if (a.attempted !=
             a.completed + a.shed + a.dropped() + a.in_flight_end) {
    acct_error = "attempted != completed + shed + dropped + in flight";
  } else if (a.completed != result.completed ||
             a.shed != result.flow_control.shed) {
    acct_error = "driver counts disagree with the client pool";
  }
  if (!acct_error.empty()) {
    if (!out.detail.empty()) out.detail += "; ";
    out.detail += "accounting: " + acct_error;
  }
  out.correct = out.detail.empty();

  // --- end-to-end metrics that need run_driver's view -----------------------
  out.knee_cps = 0;
  for (std::size_t i = 0; i < result.windows.size(); ++i) {
    const stats::MetricsWindow& win = result.windows[i];
    const std::uint64_t arrivals = snaps[i + 1].attempted - snaps[i].attempted;
    // A window counts when its p99 meets the limit, nothing was shed, and
    // its completions reach 95% of its arrivals: the backlog is not growing.
    // The 5% slack absorbs the lag a rising ramp puts between arrivals and
    // their completions (about 2.5% at caesar-wan-ramp's slope).
    const bool ok = arrivals > 0 &&
                    win.latency.percentile(99) <= w.latency_limit_us &&
                    snaps[i + 1].shed == snaps[i].shed &&
                    static_cast<double>(win.completed()) >=
                        0.95 * static_cast<double>(arrivals);
    if (ok) {
      out.knee_cps = std::max(out.knee_cps,
                              static_cast<double>(arrivals) / win.duration_s());
    }
  }
  Time unavail_sum = 0;
  for (Time first : first_after) {
    if (first < 0) {
      unavail_sum = -1;
      break;
    }
    unavail_sum += first - w.disruption_at;
  }
  out.unavail_ms =
      unavail_sum < 0 ? -1 : ms(unavail_sum) / static_cast<double>(n);

  if (!tracer) return out;

  // --- per-layer metrics ----------------------------------------------------
  const double cmds = static_cast<double>(result.completed);
  const stats::ProtocolStats& p = result.proto;
  const double decisions =
      static_cast<double>(p.fast_decisions + p.slow_decisions);
  const auto& T = *tracer;
  auto& L = out.layers;
  const std::uint64_t events = sim.executed_events();
  L["sim.events"] = static_cast<double>(events);
  L["sim.events_per_cmd"] = ratio(events, cmds);
  L["sim.loop_self_s"] = T.self_s(kLoop);
  L["sim.ns_per_event"] = ratio(T.agg(kLoop).total_ns, events);
  const net::Network& net = cluster.network();
  const double net_msgs = static_cast<double>(
      net.messages_delivered() + net.messages_dropped() + net.messages_held());
  L["net.msgs_per_cmd"] = ratio(result.messages, cmds);
  L["net.bytes_per_cmd"] = ratio(result.bytes, cmds);
  L["net.frames_per_msg"] = ratio(ctx.frames, net_msgs);
  std::sort(queue_samples.begin(), queue_samples.end());
  L["runtime.cpu_util_max"] = util_max;
  L["runtime.cpu_util_mean"] = ratio(util_sum, util_samples);
  L["runtime.queue_depth_p99"] =
      queue_samples.empty()
          ? 0.0
          : queue_samples[static_cast<std::size_t>(
                0.99 * static_cast<double>(queue_samples.size() - 1))];
  L["runtime.ops_per_batch"] = ratio(ctx.proposed_cmds, ctx.proposals);
  L["runtime.submit_s"] = T.self_s(kSubmit);
  L["runtime.send_s"] = T.self_s(kSend);
  L["runtime.deliver_s"] = T.self_s(kDeliver);
  const Layer proto_layers[] = {kPropose, kOnMessage, kTimer, kCatchup,
                                kProtoOther};
  double proto_self = 0;
  for (Layer l : proto_layers) proto_self += T.self_s(l);
  L["proto.on_message_s"] = T.total_s(kOnMessage);
  L["proto.propose_s"] = T.total_s(kPropose);
  L["proto.timer_s"] = T.total_s(kTimer);
  L["proto.on_catchup_s"] = T.total_s(kCatchup);
  L["proto.self_s"] = proto_self;
  L["proto.us_per_cmd"] = ratio(proto_self * 1e6, cmds);
  L["proto.fast_path_pct"] = pct(p.fast_decisions, decisions);
  L["proto.retries_per_cmd"] = ratio(p.retries, decisions);
  L["proto.slow_per_cmd"] = ratio(p.slow_proposals, decisions);
  L["proto.waits_per_cmd"] = ratio(p.waits, decisions);
  L["proto.recoveries"] = static_cast<double>(p.recoveries);
  L["proto.wait_p50_ms"] = ms(p.wait_time.percentile(50));
  L["proto.propose_p50_ms"] = ms(p.propose_phase.percentile(50));
  L["proto.retry_p50_ms"] = ms(p.retry_phase.percentile(50));
  L["proto.deliver_p50_ms"] = ms(p.deliver_phase.percentile(50));
  L["rsm.apply_s"] = T.self_s(kApply);
  L["rsm.log_record_s"] = T.self_s(kLogRecord);
  L["rsm.applies"] = static_cast<double>(ctx.applies);
  std::uint64_t mirror_entries = 0;
  for (const auto& log : result.delivery_logs) mirror_entries += log.size();
  L["harness.oracle_s"] = T.total_s(kOracle);
  L["harness.mirror_s"] = T.self_s(kMirror);
  L["harness.mirror_entries"] = static_cast<double>(mirror_entries);
  L["harness.setup_s"] = T.self_s(kSetup);
  L["harness.report_s"] = T.self_s(kReport);
  L["workload.on_delivery_s"] = T.self_s(kOnDelivery);
  L["workload.attempted"] = static_cast<double>(a.attempted);
  L["workload.shed"] = static_cast<double>(a.shed);
  L["workload.dropped"] = static_cast<double>(a.dropped());
  L["workload.in_flight_end"] = static_cast<double>(a.in_flight_end);
  L["storage.wal_appends_per_cmd"] = ratio(p.wal_appends, cmds);
  L["storage.fsyncs_per_cmd"] = ratio(p.fsyncs, cmds);
  L["storage.snapshots"] = static_cast<double>(p.snapshots);
  L["storage.truncated_segments"] = static_cast<double>(p.truncated_segments);
  L["storage.disk_bytes"] = static_cast<double>(dir_bytes(s.storage.data_dir));
  L["storage.restart_s"] = T.total_s(kRestart);
  L["recovery.catchup_requests"] = static_cast<double>(p.catchup_requests);
  L["recovery.catchup_chunks"] = static_cast<double>(p.catchup_chunks);
  L["recovery.catchup_commands"] = static_cast<double>(p.catchup_commands);
  L["recovery.catchup_ms"] =
      restart_at >= 0 && last_catchup_at >= 0 ? ms(last_catchup_at - restart_at)
                                              : 0.0;
  // Self times partition the root spans, so whatever they leave uncovered is
  // wall time the trace does not account for.
  double self_total = 0;
  for (int l = 0; l < kLayerCount; ++l) {
    self_total += T.self_s(static_cast<Layer>(l));
  }
  L["trace.unaccounted_pct"] = pct(out.wall_s - self_total, out.wall_s);
  L["trace.wall_s"] = out.wall_s;
  for (const auto& [type, v] : T.by_type()) {
    out.msg_types[type] = {v.first, v.second * 1e-9};
  }
  if (!opt.trace_out.empty() && !T.write_chrome(opt.trace_out, t_begin)) {
    out.correct = false;
    out.detail = "cannot write " + opt.trace_out;
  }
  return out;
}

}  // namespace perfbench
