// serve-wire: the query-100k KB served by an in-process serve::Server on
// loopback. One client thread drives a closed loop over two connections,
// on one CPU with the server's threads:
// single requests on one, fixed-size pipelined bursts of cheap kinds on the
// other. A writer thread asserts and publishes a new epoch at a fixed
// cadence; the client re-pins both connections with (sync) periodically.
// At every sync, the answers received since the last one are checked
// against Session::Serve at the epoch their connection was pinned to.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "checks.h"
#include "obs/histogram.h"
#include "serve/framing.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {

using classic::Database;
using classic::KbEngine;
using classic::QueryAnswer;
using classic::QueryRequest;
using classic::Result;
using classic::Session;
using classic::Status;
namespace serve = classic::serve;

namespace {

constexpr size_t kReadsPerRound = 2000;
constexpr size_t kBurstEvery = 25;  // one burst per this many single requests
constexpr size_t kBurstSize = 16;
constexpr size_t kSyncEvery = 100;
// A publish costs 30-50 ms on average at 100k individuals (a third of
// them take 0.1-0.4 s), so at this cadence the writer is busy a sixth to a
// quarter of the time instead of all of it.
constexpr auto kPublishEvery = std::chrono::milliseconds(200);
constexpr size_t kWriterChunk = 100;  // tail ops per published epoch

/// One client connection: blocking socket I/O with the codec steps
/// (frame encode/decode, wire encode/decode) as separate calls, so that a
/// traced run can time each.
class Conn {
 public:
  static Result<std::unique_ptr<Conn>> Open(uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Status::IOError("socket");
    std::unique_ptr<Conn> c(new Conn(fd));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return Status::IOError(std::string("connect: ") + std::strerror(errno));
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    CLASSIC_ASSIGN_OR_RETURN(serve::Frame hello, c->Recv(nullptr));
    if (hello.opcode != serve::Opcode::kHello) return Status::IOError("no hello");
    CLASSIC_ASSIGN_OR_RETURN(serve::HelloInfo info,
                             serve::DecodeHelloPayload(hello.payload));
    c->epoch_ = info.epoch;
    return c;
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  uint64_t epoch() const { return epoch_; }

  Status Send(const std::string& bytes) {
    size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + done, bytes.size() - done, 0);
      if (n <= 0) return Status::IOError("send");
      done += static_cast<size_t>(n);
    }
    return Status::OK();
  }

  /// Reads until one whole frame is buffered (span serve.transport, which,
  /// with the send, also covers the server's work), then decodes it
  /// (serve.frame_codec).
  Result<serve::Frame> Recv(Tracer* t) {
    {
      std::optional<Tracer::Scope> s;
      if (t != nullptr) s.emplace(t, "serve.transport");
      while (FrameBytes() == 0) {
        char buf[64 * 1024];
        const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
        if (n <= 0) return Status::IOError("connection closed");
        in_.append(buf, static_cast<size_t>(n));
      }
    }
    std::optional<Tracer::Scope> s;
    if (t != nullptr) s.emplace(t, "serve.frame_codec");
    const size_t n = FrameBytes();
    decoder_.Feed(in_.data(), n);
    in_.erase(0, n);
    CLASSIC_ASSIGN_OR_RETURN(std::optional<serve::Frame> f, decoder_.Next());
    if (!f.has_value()) return Status::IOError("incomplete frame");
    return std::move(*f);
  }

  /// (sync): re-pins the server-side session; returns the new epoch.
  Result<uint64_t> Sync() {
    CLASSIC_RETURN_NOT_OK(Send(serve::EncodeFrame(serve::Opcode::kSync, "")));
    CLASSIC_ASSIGN_OR_RETURN(serve::Frame f, Recv(nullptr));
    if (f.opcode != serve::Opcode::kPinned) return Status::IOError("sync refused");
    CLASSIC_ASSIGN_OR_RETURN(epoch_, serve::DecodePinnedPayload(f.payload));
    return epoch_;
  }

 private:
  explicit Conn(int fd) : fd_(fd) {}

  // Size of the first buffered frame when it is complete, else 0.
  size_t FrameBytes() const {
    if (in_.size() < 4) return 0;
    const auto* p = reinterpret_cast<const unsigned char*>(in_.data());
    const size_t len = (size_t{p[0]} << 24) | (size_t{p[1]} << 16) |
                       (size_t{p[2]} << 8) | size_t{p[3]};
    return in_.size() >= 4 + len ? 4 + len : 0;
  }

  int fd_;
  uint64_t epoch_ = 0;
  std::string in_;
  serve::FrameDecoder decoder_;
};

/// One answered request, for the byte-identity check at the next sync.
struct Record {
  uint64_t epoch;
  const QueryRequest* request;
  uint64_t payload_hash;
};

// The CPUs this process may run on, in order.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  std::vector<int> out;
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) out.push_back(c);
  }
  return out;
}

// Binds the calling thread, and the threads it starts from now on, to one
// CPU. Returns false if it cannot.
bool PinTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return ::sched_setaffinity(0, sizeof(set), &set) == 0;
}

// Server-side ServeQuery time so far: total and count over the query kinds.
std::pair<uint64_t, uint64_t> ServerNanos() {
  uint64_t sum = 0, count = 0;
  const auto views = classic::obs::SnapshotHistograms();
  for (size_t k = 0; k <= static_cast<size_t>(classic::obs::Op::kInstancesOf); ++k) {
    sum += views[k].sum_ns;
    count += views[k].count;
  }
  return {sum, count};
}

}  // namespace

Outcome RunServeWire(const Args& args) {
  Outcome out;
  Tracer tracer(args.trace);
  Tracer* t = nullptr;  // set for the traced round, after the untraced warm-up
  LayeredSpec spec;
  spec.seed = args.seed;
  // The writer's stream: kWriterChunk ops per kPublishEvery, and at least
  // 4 ops (create-ind and 3 FILLS) per tail individual. Sized for the
  // timed phase plus 10 s, more than one round runs past the deadline.
  spec.tail = static_cast<size_t>((args.seconds + 10) * 1000 /
                                  kPublishEvery.count() * kWriterChunk / 4) + 1;
  const Layered g = MakeLayered(spec);
  Database db;
  if (Status st = LoadLayeredBase(&db, g); !st.ok()) {
    out.Fail("bulk load: " + st.ToString());
    return out;
  }
  Phase("serve-wire: bulk load done");
  KbEngine engine(SingleThreadEngine());
  Session writer(&engine);
  if (!writer.Publish(db.kb()).ok()) {
    out.Fail("first publish");
    return out;
  }
  const std::string log_path =
      args.out_dir + "/serve-wire-" + std::to_string(::getpid()) + ".log";
  std::filesystem::remove(log_path);
  if (!db.OpenLog(log_path).ok()) out.Fail("cannot open " + log_path);

  // The client thread and the server's threads, which inherit its CPU,
  // share the last allowed CPU; the writer takes the one before it. A
  // request then hands off between two threads of one CPU, instead of
  // waking a halted vCPU, whose wake-up time the host sets: unpinned, the
  // round-trip medians of ten runs spread 12-21%.
  const std::vector<int> cpus = AllowedCpus();
  const int serve_cpu = cpus.empty() ? -1 : cpus.back();
  const int writer_cpu = cpus.size() < 2 ? serve_cpu : cpus[cpus.size() - 2];
  if (serve_cpu >= 0 && PinTo(serve_cpu)) {
    std::printf("context cpus: client and server on CPU %d, writer on CPU %d\n",
                serve_cpu, writer_cpu);
  } else {
    std::printf("context cpus: not pinned (sched_setaffinity failed)\n");
  }
  serve::Server server(&engine, serve::Server::Options{});
  if (Status st = server.Start(); !st.ok()) {
    out.Fail("server start: " + st.ToString());
    return out;
  }
  auto a = Conn::Open(server.port());
  auto b = Conn::Open(server.port());
  if (!a.ok() || !b.ok()) {
    out.Fail("connect");
    server.Stop();
    return out;
  }
  Conn& singles = **a;
  Conn& bursts = **b;

  // The request sequence: no ask-possible (a 0.1 s scan of the whole KB);
  // bursts carry cheap kinds only.
  std::vector<ReadOp> reads;
  for (ReadOp& op : LayeredReads(g, kReadsPerRound, args.seed)) {
    if (op.cls != "ask_possible") reads.push_back(std::move(op));
  }
  std::vector<QueryRequest> burst_pool;
  for (ReadOp& op : LayeredReads(g, 4 * kReadsPerRound, args.seed + 17)) {
    if (op.cls == "ask_selective" || op.cls == "describe" || op.cls == "msc") {
      burst_pool.push_back(std::move(op.request));
    }
  }
  std::vector<QueryRequest> fresh_pool;
  for (size_t i = 0; i < 64; ++i) {
    fresh_pool.push_back(QueryRequest::DescribeIndividual(Layered::IndName(i * 997)));
    fresh_pool.push_back(
        QueryRequest::MostSpecificConcepts(Layered::IndName(i * 997)));
  }

  // Pinned in-process sessions, one per epoch a connection was pinned to.
  std::map<uint64_t, std::unique_ptr<Session>> pins;
  auto pin = [&](uint64_t epoch) {
    if (pins.count(epoch) > 0) return;
    auto s = std::make_unique<Session>(&engine);
    if (!s->PinEpoch(epoch).ok()) out.Fail("epoch rotated out before pinning");
    pins[epoch] = std::move(s);
  };
  pin(singles.epoch());
  pin(bursts.epoch());
  std::vector<uint64_t> epochs_a = {singles.epoch()}, epochs_b = {bursts.epoch()};

  std::vector<Record> records;
  uint64_t shed = 0;
  double server_ns = 0;
  uint64_t wire_requests = 0;
  Samples samples;  // the current round's round trips
  // Sends the n requests pipelined on `c` and collects the replies.
  auto exchange = [&](Conn& c, const QueryRequest* const* reqs, size_t n,
                      bool record) {
    std::string frames;
    for (size_t i = 0; i < n; ++i) {
      std::string payload;
      {
        std::optional<Tracer::Scope> s;
        if (t != nullptr) s.emplace(t, "serve.wire_codec");
        payload = reqs[i]->ToWire();
      }
      std::optional<Tracer::Scope> s;
      if (t != nullptr) s.emplace(t, "serve.frame_codec");
      serve::AppendFrame(serve::Opcode::kRequest, payload, &frames);
    }
    Status sent;
    {
      std::optional<Tracer::Scope> s;
      if (t != nullptr) s.emplace(t, "serve.transport");
      sent = c.Send(frames);
    }
    if (!sent.ok()) {
      out.Fail("send failed");
      return;
    }
    for (size_t i = 0; i < n; ++i) {
      ++out.attempted;
      auto f = c.Recv(t);
      if (!f.ok()) {
        out.Fail("receive failed");
        ++out.failed;
        return;
      }
      if (f->opcode == serve::Opcode::kError) {
        auto e = serve::DecodeErrorPayload(f->payload);
        if (e.ok() && e->first == serve::kErrorCodeOverloaded) ++shed;
        ++out.failed;
        continue;
      }
      Result<QueryAnswer> ans = [&] {
        std::optional<Tracer::Scope> s;
        if (t != nullptr) s.emplace(t, "serve.wire_codec");
        return QueryAnswer::FromWire(f->payload);
      }();
      if (!ans.ok() || !ans->status.ok()) ++out.failed;
      if (record) records.push_back({c.epoch(), reqs[i], WireHash(f->payload)});
    }
  };
  auto timed = [&](const char* cls, Conn& c, const QueryRequest* const* reqs,
                   size_t n, bool record) {
    std::optional<Tracer::Scope> root;
    std::pair<uint64_t, uint64_t> server_before;
    if (t != nullptr) {
      server_before = ServerNanos();
      root.emplace(t, Tracer::Intern(cls));
    }
    const uint64_t start = NowNanos();
    exchange(c, reqs, n, record);
    samples.Add(cls, MicrosSince(start));
    if (t != nullptr) {
      root.reset();
      const auto after = ServerNanos();
      server_ns += static_cast<double>(after.first - server_before.first);
      wire_requests += after.second - server_before.second;
    }
  };
  // Checks the buffered answers against the pinned sessions, then drops
  // the pins no connection holds any more (a retained epoch at 100k
  // individuals costs megabytes).
  size_t mismatches = 0, checked = 0;
  auto verify = [&] {
    std::map<uint64_t, std::vector<const Record*>> by_epoch;
    for (const Record& r : records) by_epoch[r.epoch].push_back(&r);
    for (const auto& [epoch, recs] : by_epoch) {
      std::vector<QueryRequest> reqs;
      for (const Record* r : recs) reqs.push_back(*r->request);
      const std::vector<QueryAnswer> direct = pins[epoch]->ServeBatch(reqs);
      for (size_t i = 0; i < recs.size(); ++i) {
        ++checked;
        const std::string e = CheckWireAnswer(recs[i]->payload_hash, direct[i]);
        if (!e.empty() && mismatches++ == 0) {
          out.Fail(e + " at epoch " + std::to_string(epoch) + " for " +
                   recs[i]->request->ToWire());
        }
      }
    }
    records.clear();
    for (auto it = pins.begin(); it != pins.end();) {
      const bool held = it->first == singles.epoch() || it->first == bursts.epoch();
      it = held ? std::next(it) : pins.erase(it);
    }
  };
  auto sync_both = [&](size_t round_no, size_t k) {
    for (auto [c, seen] : {std::pair{&singles, &epochs_a}, std::pair{&bursts, &epochs_b}}) {
      const uint64_t before = c->epoch();
      auto e = c->Sync();
      ++out.attempted;
      if (!e.ok()) {
        ++out.failed;
        continue;
      }
      seen->push_back(*e);
      pin(*e);
      if (c == &singles && *e != before) {
        const size_t f = (2 * (round_no * kReadsPerRound + k)) % fresh_pool.size();
        const QueryRequest* pair[] = {&fresh_pool[f], &fresh_pool[f + 1]};
        timed("fresh", singles, pair, 2, true);
      }
    }
  };
  // Every round sends the same bursts, so that round medians compare.
  auto round = [&](size_t round_no, bool record) {
    size_t burst_at = 0;
    for (size_t k = 0; k < reads.size(); ++k) {
      if (k % kSyncEvery == 0) {
        verify();
        sync_both(round_no, k);
      }
      if (k % kBurstEvery == 0) {
        const QueryRequest* burst[kBurstSize];
        for (size_t i = 0; i < kBurstSize; ++i) {
          burst[i] = &burst_pool[burst_at++ % burst_pool.size()];
        }
        timed("batch", bursts, burst, kBurstSize, record);
      }
      const QueryRequest* one[] = {&reads[k].request};
      timed(reads[k].cls.c_str(), singles, one, 1, record);
    }
  };

  round(0, false);  // warm-up over the wire, writer idle
  const double setup_s = static_cast<double>(NowNanos() - kProcessStartNanos) / 1e9;
  const Samples untraced = samples;  // the traced run's baseline
  samples = Samples();
  if (args.trace) t = &tracer;
  Phase("warm-up done; timed phase starts");

  // The writer: a chunk of the tail and a publish every kPublishEvery.
  // Each cycle's samples are kept with the time the cycle ended, so that
  // they can be split by the rounds of the client after the run.
  std::atomic<bool> stop{false};
  std::vector<std::pair<uint64_t, Samples>> cycles;
  uint64_t writer_attempted = 0, writer_failed = 0;
  std::thread writer_thread([&] {
    if (writer_cpu >= 0) PinTo(writer_cpu);
    Tracer off(false);
    StreamSink sink;
    sink.tracer = &off;
    const std::vector<WriteOp> tail = LayeredTail(g);
    size_t pos = 0;
    auto next = std::chrono::steady_clock::now();
    while (!stop.load() && pos < tail.size()) {
      next += kPublishEvery;
      std::this_thread::sleep_until(next);
      Samples cycle;
      sink.samples = &cycle;
      for (size_t k = 0; k < kWriterChunk && pos < tail.size(); ++k) {
        ApplyTimed(&db, tail[pos++], &sink);
      }
      const uint64_t start = NowNanos();
      if (!writer.Publish(db.kb()).ok()) ++sink.failed;
      cycle.Add("publish", MicrosSince(start));
      ++sink.attempted;
      cycles.emplace_back(NowNanos(), std::move(cycle));
    }
    if (!stop.load()) Phase("writer: tail used up, no further publishes");
    writer_attempted = sink.attempted;
    writer_failed = sink.failed;
  });

  const uint64_t deadline = NowNanos() + static_cast<uint64_t>(args.seconds * 1e9);
  size_t round_no = 1;
  Samples all;            // every timed round trip, for the ref lines
  Samples round_medians;  // per class, one median per round
  std::vector<std::pair<uint64_t, uint64_t>> round_spans;  // [start, end)
  do {
    const uint64_t round_start = NowNanos();
    round(round_no++, true);
    round_spans.emplace_back(round_start, NowNanos());
    all.Merge(samples);
    round_medians.AddMedians(samples);
    samples = Samples();
    if (args.trace) break;  // one traced round
  } while (NowNanos() < deadline);
  stop.store(true);
  writer_thread.join();
  out.attempted += writer_attempted;
  out.failed += writer_failed;
  // The writer's figures: assert_us is the lowest round median, as for
  // the reads; publish_ms the mean over the run (see query_workload.cc).
  Samples writes;         // every writer cycle, for the ref lines
  Samples write_medians;  // asserts, one median per round
  for (const auto& [start, end] : round_spans) {
    Samples in_round;
    for (const auto& [at, cycle] : cycles) {
      if (at >= start && at < end) in_round.Merge(cycle);
    }
    write_medians.AddMedians(in_round);
  }
  for (const auto& [at, cycle] : cycles) writes.Merge(cycle);
  const serve::Server::Stats stats = server.stats();
  singles.Send(serve::EncodeFrame(serve::Opcode::kBye, ""));
  bursts.Send(serve::EncodeFrame(serve::Opcode::kBye, ""));
  server.Stop();
  verify();
  Phase("timed phase done: " + std::to_string(round_no - 1) + " rounds, " +
        std::to_string(checked) + " wire answers checked");

  // No shedding; no connection's epoch moved backwards.
  if (shed > 0 || stats.requests_shed > 0) {
    out.Fail(std::to_string(shed) + " requests shed");
  }
  for (const auto* seen : {&epochs_a, &epochs_b}) {
    if (std::string e = CheckEpochsMonotone(*seen); !e.empty()) out.Fail(e);
  }
  Phase("checks done");
  std::filesystem::remove(log_path);

  if (args.trace) {
    AddSpanMetrics(tracer, &out);
    const double requests = static_cast<double>(wire_requests);
    // Per request: the codec spans are summed over a request's frames.
    double frame_us = 0, wire_us = 0, transport_us = 0;
    for (const Tracer::Span& s : tracer.spans()) {
      const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      if (std::strcmp(s.name, "serve.frame_codec") == 0) frame_us += us;
      if (std::strcmp(s.name, "serve.wire_codec") == 0) wire_us += us;
      if (std::strcmp(s.name, "serve.transport") == 0) transport_us += us;
    }
    out.layer["serve.frame_codec_us"] = frame_us / requests;
    out.layer["serve.wire_codec_us"] = wire_us / requests;
    out.layer["kb.serve_query_us"] = server_ns / 1e3 / requests;
    out.layer["serve.transport_us"] = (transport_us - server_ns / 1e3) / requests;
    out.layer["serve.requests_per_batch"] =
        static_cast<double>(stats.requests_accepted) /
        static_cast<double>(stats.batches_dispatched);
    out.layer["kb.publish_us"] = writes.Mean("publish");
    ReportTrace(tracer, untraced,
                args.out_dir + "/trace-serve-wire-" + std::to_string(args.seed) + ".json",
                &out);
  }

  all.PrintReference("ref");
  writes.PrintReference("ref");
  std::printf("ref server requests_accepted=%llu batches=%llu shed=%llu\n",
              static_cast<unsigned long long>(stats.requests_accepted),
              static_cast<unsigned long long>(stats.batches_dispatched),
              static_cast<unsigned long long>(stats.requests_shed));
  out.Add("setup_s", setup_s, "s");
  out.Add("peak_rss_mb", PeakRssMiB(), "MiB");
  for (const char* cls : {"ask_selective", "ask_scan", "ask_description",
                          "path_query", "describe", "instances_of", "batch"}) {
    out.Add(std::string(cls) + "_us", round_medians.Lowest(cls), "us");
  }
  out.Add("assert_us", write_medians.Lowest("assert"), "us");
  out.Add("publish_ms", writes.Mean("publish") / 1e3, "ms");
  return out;
}

}  // namespace perfbench
