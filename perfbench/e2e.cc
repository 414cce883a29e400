// perfbench_e2e: the untraced end-to-end tools run.py drives.
//
//   train         one Pane::Train in this (fresh) process; prints set-up and
//                 train seconds, objectives and a hash of the embedding
//   gen-artifact  writes the clustered serving artifact (container format)
//   loadgen       closed-loop then open-loop (Poisson) load over loopback
//                 TCP against a running pane_server; one event-loop thread,
//                 at most one request outstanding per connection
//   reference     answers sampled requests directly through QueryEngine and
//                 compares them with what the server returned
//   machine       the machine record (cores, ISA, dot_block dispatch, ...)
//   idle-spin     one SCHED_IDLE busy loop per CPU until killed
//
// Each prints one JSON object on stdout.
#include <arpa/inet.h>
#include <fcntl.h>
#include <signal.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "perfbench/common.h"
#include "src/api/node_embedding.h"
#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/core/pane.h"
#include "src/parallel/thread_pool.h"
#include "src/serve/embedding_store.h"
#include "src/serve/frame_protocol.h"
#include "src/serve/line_protocol.h"
#include "src/serve/query_engine.h"

namespace perfbench {
namespace {

using pane::FlagSet;

std::string NumberList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += pane::bench::JsonNumber(values[i]);
  }
  return out + "]";
}

// ---- train ----------------------------------------------------------------

constexpr int kSetupRepeats = 5;

int Train(int argc, char** argv) {
  const double process_start = NowSeconds();
  FlagSet flags;
  flags.AddInt("n", 10000, "nodes");
  flags.AddInt("d", 1000, "attributes");
  flags.AddInt("k", 64, "space budget");
  flags.AddInt("threads", 4, "training threads");
  flags.AddInt("seed", 1, "graph seed");
  flags.AddInt("budget-mb", 0, "memory budget (0 = unbounded)");
  flags.AddString("spill-dir", "", "spill directory");
  PANE_CHECK_OK(flags.Parse(argc, argv));

  const pane::SbmParams params =
      TrainingGraph(flags.GetInt("n"), flags.GetInt("d"),
                    static_cast<uint64_t>(flags.GetInt("seed")));
  // Set-up is the graph build, done kSetupRepeats times (the first one
  // counted from process start); setup_s is the median. One build of this
  // size takes ~50 ms, so a single sample is mostly host noise.
  std::vector<double> setups;
  std::optional<pane::AttributedGraph> built;
  double setup_start = process_start;
  for (int i = 0; i < kSetupRepeats; ++i) {
    built.reset();
    built.emplace(pane::GenerateAttributedSbm(params));
    setups.push_back(NowSeconds() - setup_start);
    setup_start = NowSeconds();
  }
  const pane::AttributedGraph& graph = *built;
  const double setup_s = Quantile(setups, 0.5);

  pane::PaneOptions options;
  options.k = static_cast<int>(flags.GetInt("k"));
  options.num_threads = static_cast<int>(flags.GetInt("threads"));
  options.memory_budget_mb = flags.GetInt("budget-mb");
  options.spill_dir = flags.GetString("spill-dir");
  pane::PaneStats stats;
  const double train_start = NowSeconds();
  auto trained = pane::Pane(options).Train(graph, &stats);
  const double train_s = NowSeconds() - train_start;
  PANE_CHECK(trained.ok()) << trained.status();

  std::cout << Json()
                   .Num("setup_s", setup_s)
                   .Raw("setup_samples_s", NumberList(setups))
                   .Num("train_s", train_s)
                   .Num("affinity_s", stats.affinity_seconds)
                   .Num("init_s", stats.init_seconds)
                   .Num("ccd_s", stats.ccd_seconds)
                   .Num("objective_initial", stats.objective_initial)
                   .Num("objective_final", stats.objective_final)
                   .Int("edges", graph.num_edges())
                   .Int("spilled", stats.slabs_spilled)
                   .Int("pooled", stats.pooled_spill)
                   .Int("slab_bytes", stats.slab_bytes)
                   .Int("init_blocks_overlapped", stats.init_blocks_overlapped)
                   .Int("pool_evicted_pages", stats.pool.evicted_pages)
                   .Int("pool_writeback_pages", stats.pool.writeback_pages)
                   .Int("pool_resident_peak_bytes",
                        stats.pool.resident_peak_bytes)
                   .Str("hash", HexHash(HashEmbedding(*trained)))
                   .str()
            << std::endl;
  return 0;
}

// ---- gen-artifact ---------------------------------------------------------

int GenArtifact(int argc, char** argv) {
  FlagSet flags;
  flags.AddInt("n", 100000, "nodes");
  flags.AddInt("d", 20000, "attributes");
  flags.AddInt("h", 64, "factor dimension");
  flags.AddInt("clusters", 64, "clusters");
  flags.AddInt("seed", 1, "seed");
  flags.AddString("out", "", "artifact path");
  PANE_CHECK_OK(flags.Parse(argc, argv));
  const int64_t n = flags.GetInt("n");
  const int64_t h = flags.GetInt("h");
  pane::PaneEmbedding e = MakeClusteredEmbedding(
      n, flags.GetInt("d"), h, flags.GetInt("clusters"),
      static_cast<uint64_t>(flags.GetInt("seed")));
  pane::NodeEmbedding artifact;
  artifact.method = "pane";
  artifact.features.Resize(n, 2 * h);
  artifact.features.SetBlock(0, 0, e.xf);
  artifact.features.SetBlock(0, h, e.xb);
  artifact.xf = std::move(e.xf);
  artifact.xb = std::move(e.xb);
  artifact.y = std::move(e.y);
  artifact.link_convention = pane::LinkConvention::kForwardBackward;
  artifact.attribute_convention = pane::AttributeConvention::kFactors;
  PANE_CHECK_OK(artifact.SaveContainer(flags.GetString("out")));
  std::cout << Json().Str("artifact", flags.GetString("out")).str()
            << std::endl;
  return 0;
}

// ---- loadgen --------------------------------------------------------------

struct Pending {
  std::string request;
  double due = 0.0;
};

struct Conn {
  int fd = -1;
  std::unique_ptr<pane::serve::ProtocolCodec> codec;
  std::string in;
  std::string out;
  size_t out_pos = 0;
  bool want_write = false;
  std::deque<Pending> pending;
};

struct Phase {
  int64_t sent = 0;
  int64_t succeeded = 0;
  int64_t failed = 0;
  int64_t completed_in_window = 0;
  double start = 0.0;
  std::vector<double> done_at;     // closed loop: completions inside the phase
  std::vector<double> latency_ms;
  std::vector<double> due_at;      // per latency sample
  std::vector<double> lateness_ms;
  std::vector<std::pair<std::string, std::string>> answers;
  int64_t bytes_out = 0;
  int64_t bytes_in = 0;
  double seconds = 0.0;
};

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

class LoadGen {
 public:
  LoadGen(int port, bool frame, int conns) : frame_(frame) {
    epoll_ = epoll_create1(EPOLL_CLOEXEC);
    timer_ = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
    PANE_CHECK(epoll_ >= 0 && timer_ >= 0) << std::strerror(errno);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kTimerTag;
    PANE_CHECK(epoll_ctl(epoll_, EPOLL_CTL_ADD, timer_, &ev) == 0);
    for (int c = 0; c < conns; ++c) conns_.push_back(Connect(port, c));
  }

  ~LoadGen() {
    for (Conn& c : conns_) close(c.fd);
    close(timer_);
    close(epoll_);
  }

  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Each connection keeps exactly one request outstanding for `seconds`.
  Phase Closed(RequestStream* stream, double seconds) {
    Phase phase;
    const double start = NowSeconds();
    const double end = start + seconds;
    phase.start = start;
    for (size_t c = 0; c < conns_.size(); ++c) {
      Send(c, stream->Next(), NowSeconds(), &phase);
    }
    Drive(&phase, [&](size_t c, double now) {
      if (now < end) {
        ++phase.completed_in_window;
        phase.done_at.push_back(now);
        Send(c, stream->Next(), now, &phase);
      }
    });
    phase.seconds = seconds;
    return phase;
  }

  /// Poisson arrivals at `rate` per second for `seconds`. Each arrival
  /// goes out on an idle connection, or waits in the generator's queue
  /// until one frees (at most one request outstanding per connection, like
  /// the closed loop). Requests are timed from their due time, so that wait
  /// counts; lateness is how late the generator handled an arrival.
  Phase Open(RequestStream* stream, double rate, double seconds,
             uint64_t seed) {
    Phase phase;
    pane::Rng rng(seed);
    std::vector<double> due;
    for (double t = 0.0;;) {
      t += -std::log(1.0 - rng.UniformDouble()) / rate;
      if (t >= seconds) break;
      due.push_back(t);
    }
    const double start = NowSeconds() + 0.01;
    phase.start = start;
    size_t next = 0;
    std::deque<std::pair<std::string, double>> backlog;  // (request, due)
    const auto dispatch = [&]() {
      for (size_t c = 0; c < conns_.size() && !backlog.empty(); ++c) {
        if (!conns_[c].pending.empty()) continue;
        Send(c, std::move(backlog.front().first), backlog.front().second,
             &phase);
        backlog.pop_front();
      }
    };
    const auto arm = [&]() {
      if (next >= due.size()) return;
      const double at = start + due[next];
      itimerspec spec{};
      spec.it_value.tv_sec = static_cast<time_t>(at);
      spec.it_value.tv_nsec = static_cast<long>((at - std::floor(at)) * 1e9);
      if (spec.it_value.tv_sec == 0 && spec.it_value.tv_nsec == 0) {
        spec.it_value.tv_nsec = 1;
      }
      PANE_CHECK(timerfd_settime(timer_, TFD_TIMER_ABSTIME, &spec, nullptr) ==
                 0);
    };
    on_timer_ = [&]() {
      uint64_t expirations = 0;
      (void)!read(timer_, &expirations, sizeof(expirations));
      const double now = NowSeconds();
      while (next < due.size() && start + due[next] <= now) {
        const double due_at = start + due[next];
        phase.lateness_ms.push_back((now - due_at) * 1e3);
        backlog.emplace_back(stream->Next(), due_at);
        ++next;
      }
      dispatch();
      arm();
    };
    arm();
    open_remaining_ = [&]() { return next < due.size() || !backlog.empty(); };
    Drive(&phase, [&](size_t, double) {
      ++phase.completed_in_window;
      dispatch();
    });
    // Arrivals never sent (the phase timed out) count as failed attempts.
    phase.sent += static_cast<int64_t>(backlog.size());
    phase.failed += static_cast<int64_t>(backlog.size());
    on_timer_ = nullptr;
    open_remaining_ = nullptr;
    phase.seconds = seconds;
    return phase;
  }

  /// One request at a time on connection 0; returns the response.
  std::string RoundTrip(const std::string& request, double* rtt_ms) {
    Phase phase;
    const double start = NowSeconds();
    Send(0, request, start, &phase);
    Drive(&phase, [](size_t, double) {});
    if (rtt_ms != nullptr) *rtt_ms = phase.latency_ms.empty() ? 0.0
                                                               : phase.latency_ms[0];
    return phase.answers.empty() ? std::string() : phase.answers[0].second;
  }

  bool timed_out() const { return timed_out_; }

 private:
  static constexpr uint64_t kTimerTag = ~uint64_t{0};
  static constexpr double kTimeoutSeconds = 10.0;

  Conn Connect(int port, int index) {
    Conn c;
    c.fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    PANE_CHECK(c.fd >= 0) << std::strerror(errno);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    PANE_CHECK(connect(c.fd, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)) == 0)
        << "connect: " << std::strerror(errno);
    const int one = 1;
    setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    PANE_CHECK(SetNonBlocking(c.fd));
    if (frame_) {
      c.codec = std::make_unique<pane::serve::FrameCodec>();
    } else {
      c.codec = std::make_unique<pane::serve::LineCodec>();
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = static_cast<uint64_t>(index);
    PANE_CHECK(epoll_ctl(epoll_, EPOLL_CTL_ADD, c.fd, &ev) == 0);
    return c;
  }

  void Send(size_t index, std::string request, double due, Phase* phase) {
    Conn& c = conns_[index];
    const size_t before = c.out.size();
    c.codec->Encode(request, &c.out);
    phase->bytes_out += static_cast<int64_t>(c.out.size() - before);
    ++phase->sent;
    Pending p;
    p.request = std::move(request);
    p.due = due;
    c.pending.push_back(std::move(p));
    Flush(index);
  }

  void Flush(size_t index) {
    Conn& c = conns_[index];
    while (c.out_pos < c.out.size()) {
      const ssize_t w = write(c.fd, c.out.data() + c.out_pos,
                              c.out.size() - c.out_pos);
      if (w > 0) {
        c.out_pos += static_cast<size_t>(w);
        continue;
      }
      if (w < 0 && errno == EINTR) continue;
      break;  // EAGAIN: wait for EPOLLOUT
    }
    if (c.out_pos == c.out.size()) {
      c.out.clear();
      c.out_pos = 0;
    }
    const bool want = !c.out.empty();
    if (want != c.want_write) {
      epoll_event ev{};
      ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
      ev.data.u64 = index;
      epoll_ctl(epoll_, EPOLL_CTL_MOD, c.fd, &ev);
      c.want_write = want;
    }
  }

  bool AnyPending() const {
    for (const Conn& c : conns_) {
      if (!c.pending.empty()) return true;
    }
    return false;
  }

  template <typename OnResponse>
  void Drive(Phase* phase, OnResponse on_response) {
    epoll_event events[16];
    double last_progress = NowSeconds();
    while (AnyPending() || (open_remaining_ && open_remaining_())) {
      const int ready = epoll_wait(epoll_, events, 16, 100);
      const double now = NowSeconds();
      if (ready < 0 && errno != EINTR) break;
      for (int e = 0; e < std::max(ready, 0); ++e) {
        if (events[e].data.u64 == kTimerTag) {
          if (on_timer_) on_timer_();
          continue;
        }
        const size_t index = events[e].data.u64;
        if (events[e].events & EPOLLOUT) Flush(index);
        if (events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
          if (Read(index, phase, on_response)) last_progress = NowSeconds();
        }
      }
      if (AnyPending() && now - last_progress > kTimeoutSeconds) {
        for (Conn& c : conns_) {
          phase->failed += static_cast<int64_t>(c.pending.size());
          c.pending.clear();
        }
        timed_out_ = true;
        break;
      }
    }
  }

  template <typename OnResponse>
  bool Read(size_t index, Phase* phase, OnResponse on_response) {
    Conn& c = conns_[index];
    char buf[65536];
    bool progressed = false;
    for (;;) {
      const ssize_t r = read(c.fd, buf, sizeof(buf));
      if (r > 0) {
        c.in.append(buf, static_cast<size_t>(r));
        phase->bytes_in += r;
        continue;
      }
      if (r < 0 && errno == EINTR) continue;
      break;
    }
    size_t pos = 0;
    for (;;) {
      std::string_view payload;
      std::string error;
      const auto decoded = c.codec->Decode(c.in, &pos, &payload, &error);
      if (decoded == pane::serve::ProtocolCodec::Decoded::kFlush) continue;
      if (decoded != pane::serve::ProtocolCodec::Decoded::kMessage) break;
      const double now = NowSeconds();
      if (c.pending.empty()) continue;  // unsolicited bytes
      Pending p = std::move(c.pending.front());
      c.pending.pop_front();
      const bool ok = payload.substr(0, 3) != "err";
      (ok ? phase->succeeded : phase->failed) += 1;
      phase->latency_ms.push_back((now - p.due) * 1e3);
      phase->due_at.push_back(p.due);
      phase->answers.emplace_back(std::move(p.request), std::string(payload));
      progressed = true;
      on_response(index, now);
    }
    c.in.erase(0, pos);
    return progressed;
  }

  bool frame_;
  int epoll_ = -1;
  int timer_ = -1;
  std::vector<Conn> conns_;
  std::function<void()> on_timer_;
  std::function<bool()> open_remaining_;
  bool timed_out_ = false;
};

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// Host noise (vCPU preemption, other tenants) arrives in bursts, so the
// headline numbers are medians over windows of the phase: throughput over
// eight equal slices of the closed loop, and latency percentiles over
// consecutive groups of at least 1000 samples in due-time order (so p99
// has ten samples beyond it in every group).
constexpr int kWindows = 8;
constexpr size_t kLatencyGroup = 1000;

std::vector<double> WindowQps(const Phase& p) {
  std::vector<double> counts(kWindows, 0.0);
  for (const double t : p.done_at) {
    const int w = std::clamp(
        static_cast<int>((t - p.start) / p.seconds * kWindows), 0,
        kWindows - 1);
    counts[static_cast<size_t>(w)] += 1.0;
  }
  for (double& c : counts) c *= kWindows / p.seconds;
  return counts;
}

double WindowedLatency(const Phase& p, double q) {
  std::vector<size_t> order(p.latency_ms.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return p.due_at[a] < p.due_at[b]; });
  const size_t groups = std::max<size_t>(order.size() / kLatencyGroup, 1);
  std::vector<double> per_group;
  for (size_t g = 0; g < groups; ++g) {
    std::vector<double> v;
    for (size_t i = g * order.size() / groups;
         i < (g + 1) * order.size() / groups; ++i) {
      v.push_back(p.latency_ms[order[i]]);
    }
    per_group.push_back(Quantile(std::move(v), q));
  }
  return Median(per_group);
}

std::string PhaseJson(const Phase& p) {
  return Json()
      .Int("sent", p.sent)
      .Int("succeeded", p.succeeded)
      .Int("failed", p.failed)
      .Int("completed_in_window", p.completed_in_window)
      .Num("seconds", p.seconds)
      .Num("qps", static_cast<double>(p.completed_in_window) / p.seconds)
      .Num("qps_windowed", Median(WindowQps(p)))
      .Raw("qps_windows", NumberList(WindowQps(p)))
      .Int("latency_samples", static_cast<int64_t>(p.latency_ms.size()))
      .Num("p50_ms", Quantile(p.latency_ms, 0.50))
      .Num("p90_ms", Quantile(p.latency_ms, 0.90))
      .Num("p99_ms", Quantile(p.latency_ms, 0.99))
      .Num("p50_ms_windowed", WindowedLatency(p, 0.50))
      .Num("p90_ms_windowed", WindowedLatency(p, 0.90))
      .Num("p99_ms_windowed", WindowedLatency(p, 0.99))
      .Num("lateness_p50_ms", Quantile(p.lateness_ms, 0.50))
      .Num("lateness_p99_ms", Quantile(p.lateness_ms, 0.99))
      .Num("lateness_max_ms", Quantile(p.lateness_ms, 1.0))
      .Int("bytes_out", p.bytes_out)
      .Int("bytes_in", p.bytes_in)
      .str();
}

// Writes up to `limit` (request, response) pairs spread evenly over the
// phase, tab separated.
void WriteSample(const Phase& p, size_t limit, std::ofstream* out) {
  const size_t n = p.answers.size();
  const size_t step = std::max<size_t>(1, (n + limit - 1) / std::max<size_t>(limit, 1));
  for (size_t i = 0; i < n; i += step) {
    *out << p.answers[i].first << '\t' << p.answers[i].second << '\n';
  }
}

// The load: one client per CPU of the reference machine (4), each with at
// most one request outstanding.
constexpr int kConnections = 4;
// The open loop runs at this share of the closed-loop qps the same run has
// just measured (the rate used is printed). A fixed absolute rate put
// serve_exact on the steep part of its queueing curve: when host speed
// drifted by 12% between two sets of ten runs, p99 moved by 35%. 0.2 also
// keeps the median an unqueued attr answer: a share rho of arrivals queue
// behind the batch of one that is executing and a quarter are 6x slower
// link scans, so 0.75 * (1 - rho) must stay well above one half (at rho =
// 0.5 and 0.33 the median moved 2x and 1.4x between seeds).
constexpr double kOpenLoad = 0.2;
// (request, response) pairs per phase written for the reference check.
constexpr size_t kCheckSample = 256;

int Loadgen(int argc, char** argv) {
  FlagSet flags;
  flags.AddInt("port", 0, "server port");
  flags.AddString("protocol", "line", "line or frame");
  flags.AddString("mix", "exact", "request mix: exact or sharded");
  flags.AddInt("n", 100000, "nodes");
  flags.AddInt("d", 20000, "attributes");
  flags.AddInt("seed", 1, "request seed");
  flags.AddDouble("closed-seconds", 4.0, "closed-loop phase length");
  flags.AddDouble("open-seconds", 4.0, "open-loop phase length");
  flags.AddString("check-out", "", "where the sampled answers go");
  flags.AddInt("rtt-probes", 0, "sequential pair round trips at the end");
  PANE_CHECK_OK(flags.Parse(argc, argv));

  const RequestMix mix = MixByName(flags.GetString("mix"));
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed"));
  LoadGen gen(static_cast<int>(flags.GetInt("port")),
              flags.GetString("protocol") == "frame", kConnections);
  RequestStream closed_stream(mix, flags.GetInt("n"), flags.GetInt("d"),
                              seed * 1000003 + 1);
  const Phase closed = gen.Closed(&closed_stream,
                                  flags.GetDouble("closed-seconds"));
  RequestStream open_stream(mix, flags.GetInt("n"), flags.GetInt("d"),
                            seed * 1000003 + 2);
  const double open_rate =
      std::max(1.0, kOpenLoad * static_cast<double>(closed.completed_in_window) /
                        closed.seconds);
  const Phase open = gen.Open(&open_stream, open_rate,
                              flags.GetDouble("open-seconds"),
                              seed * 1000003 + 3);
  const std::string stats = gen.RoundTrip("stats", nullptr);
  std::vector<double> rtt;
  for (int64_t i = 0; i < flags.GetInt("rtt-probes"); ++i) {
    double ms = 0.0;
    gen.RoundTrip("pair 0 1", &ms);
    rtt.push_back(ms);
  }
  if (!flags.GetString("check-out").empty()) {
    std::ofstream out(flags.GetString("check-out"));
    WriteSample(closed, kCheckSample, &out);
    WriteSample(open, kCheckSample, &out);
    PANE_CHECK(static_cast<bool>(out)) << "cannot write check file";
  }
  std::cout << Json()
                   .Raw("closed", PhaseJson(closed))
                   .Raw("open", PhaseJson(open))
                   .Int("connections", kConnections)
                   .Num("open_load", kOpenLoad)
                   .Num("open_rate", open_rate)
                   .Str("stats", stats)
                   .Num("rtt_p50_us", Quantile(rtt, 0.5) * 1e3)
                   .Int("timed_out", gen.timed_out())
                   .str()
            << std::endl;
  return 0;
}

// ---- reference --------------------------------------------------------------

int Reference(int argc, char** argv) {
  FlagSet flags;
  flags.AddString("artifact", "", "embedding artifact");
  flags.AddString("check", "", "tab-separated request/response pairs");
  flags.AddString("mode", "exact", "exact: byte-identical; sharded: recall");
  flags.AddInt("threads", 4, "engine threads");
  PANE_CHECK_OK(flags.Parse(argc, argv));
  const bool exact = flags.GetString("mode") == "exact";

  auto store = pane::serve::EmbeddingStore::Open(flags.GetString("artifact"));
  PANE_CHECK(store.ok()) << store.status();
  pane::ThreadPool pool(static_cast<int>(flags.GetInt("threads")));
  pane::serve::QueryEngineOptions options;
  options.pool = &pool;
  auto engine = pane::serve::QueryEngine::Create(*store, options);
  PANE_CHECK(engine.ok()) << engine.status();

  using pane::serve::Request;
  struct Item {
    Request request;
    std::string served;
  };
  std::vector<Item> items;
  std::ifstream in(flags.GetString("check"));
  std::string line;
  int64_t malformed = 0;
  while (std::getline(in, line)) {
    const size_t tab = line.find('\t');
    auto parsed = pane::serve::ParseRequestLine(
        std::string_view(line).substr(0, tab));
    if (tab == std::string::npos || !parsed.ok()) {
      ++malformed;
      continue;
    }
    items.push_back({*parsed, line.substr(tab + 1)});
  }

  std::vector<pane::serve::TopKQuery> attr_q, link_q;
  std::vector<std::pair<int64_t, int64_t>> attr_pairs, link_pairs;
  for (const Item& it : items) {
    const Request& r = it.request;
    if (r.type == Request::Type::kTopKAttributes) attr_q.push_back({r.a, r.k});
    if (r.type == Request::Type::kTopKTargets) link_q.push_back({r.a, r.k});
    if (r.type == Request::Type::kAttributePair) attr_pairs.emplace_back(r.a, r.b);
    if (r.type == Request::Type::kLinkPair) link_pairs.emplace_back(r.a, r.b);
  }
  const auto attr_rank = engine->TopKAttributes(attr_q);
  const auto link_rank = engine->TopKTargets(link_q);
  const auto attr_scores = engine->AttributeScores(attr_pairs);
  const auto link_scores = engine->LinkScores(link_pairs);

  size_t ai = 0, li = 0, api = 0, lpi = 0;
  int64_t mismatches = 0, errors = 0, topk = 0;
  double recall_sum = 0.0;
  for (const Item& it : items) {
    const Request& r = it.request;
    if (it.served.rfind("err", 0) == 0) ++errors;
    std::string expected;
    const pane::Ranking* ranking = nullptr;
    if (r.type == Request::Type::kTopKAttributes) ranking = &attr_rank[ai++];
    if (r.type == Request::Type::kTopKTargets) ranking = &link_rank[li++];
    if (ranking != nullptr) {
      expected = pane::serve::FormatRanking(r, *ranking);
    } else if (r.type == Request::Type::kAttributePair) {
      expected = pane::serve::FormatScore(r, attr_scores[api++]);
    } else {
      expected = pane::serve::FormatScore(r, link_scores[lpi++]);
    }
    if (exact || ranking == nullptr) {
      mismatches += expected != it.served ? 1 : 0;
      continue;
    }
    // Pruned top-k: recall of the served ids against the exact ones.
    ++topk;
    pane::Ranking served;
    if (!pane::serve::ParseRankingResponse(it.served, r.type, r.a, &served)
             .ok()) {
      ++mismatches;
      continue;
    }
    std::set<int64_t> truth;
    for (const auto& entry : *ranking) truth.insert(entry.first);
    int64_t hit = 0;
    for (const auto& entry : served) hit += truth.count(entry.first);
    recall_sum += truth.empty() ? 1.0
                                : static_cast<double>(hit) /
                                      static_cast<double>(truth.size());
  }
  std::cout << Json()
                   .Int("checked", static_cast<int64_t>(items.size()))
                   .Int("malformed", malformed)
                   .Int("mismatches", mismatches)
                   .Int("errors", errors)
                   .Int("topk_checked", topk)
                   .Num("recall_at_10",
                        topk > 0 ? recall_sum / static_cast<double>(topk) : 1.0)
                   .str()
            << std::endl;
  return 0;
}

// ---- idle-spin ------------------------------------------------------------

// Keeps every CPU busy at SCHED_IDLE priority, which runs only when no other
// thread is runnable and is preempted at once when one wakes. On a virtual
// machine this stops idle vCPUs from halting, so a woken server or
// load-generator thread does not wait for the hypervisor to reschedule its
// vCPU — a host-dependent delay of up to milliseconds that otherwise
// dominates the run-to-run spread of the serving numbers.
int IdleSpin() {
  prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < cpus; ++c) {
    threads.emplace_back([c]() {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(c, &set);
      pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
      sched_param param{};
      PANE_CHECK(sched_setscheduler(0, SCHED_IDLE, &param) == 0)
          << std::strerror(errno);
      for (;;) {
#if defined(__x86_64__)
        __builtin_ia32_pause();
#endif
      }
    });
  }
  for (std::thread& t : threads) t.join();  // never returns; killed by signal
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::string usage =
      "usage: perfbench_e2e "
      "{train|gen-artifact|loadgen|reference|machine|idle-spin} [--flags]";
  if (argc < 2) {
    std::cerr << usage << std::endl;
    return 2;
  }
  const std::string command = argv[1];
  if (command == "train") return perfbench::Train(argc - 1, argv + 1);
  if (command == "gen-artifact") return perfbench::GenArtifact(argc - 1, argv + 1);
  if (command == "loadgen") return perfbench::Loadgen(argc - 1, argv + 1);
  if (command == "reference") return perfbench::Reference(argc - 1, argv + 1);
  if (command == "idle-spin") return perfbench::IdleSpin();
  if (command == "machine") {
    std::cout << perfbench::MachineJson() << std::endl;
    return 0;
  }
  std::cerr << usage << std::endl;
  return 2;
}
