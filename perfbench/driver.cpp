// Served-leakage benchmark driver: starts `infoleak serve`, sends one
// workload over loopback TCP from this single process (at most two
// connections, one thread each, closed loop), checks every answer against
// the library's offline value, and prints every metric by name with its
// unit. The last stdout line is one JSON object:
//
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload a
// second time on a fresh server while paging the server's request event log
// (`tail`), and reports the per-layer metrics. See perfbench/README.md.

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/column_bank.h"
#include "core/leakage.h"
#include "core/prepared.h"
#include "core/weights.h"
#include "host_speed.h"
#include "inputs.h"
#include "persist/durable_store.h"
#include "server_process.h"
#include "stats.h"
#include "svc/client.h"
#include "svc/json.h"
#include "svc/protocol.h"
#include "util/file.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using infoleak::svc::JsonValue;

constexpr std::size_t kServerWorkers = 2;
/// Server starts per run; setup_s is their median.
constexpr int kSetupRepeats = 5;
/// Longest a server may take to come up, and to drain after SIGTERM.
constexpr double kStartTimeoutS = 60.0;
constexpr double kDrainGraceS = 10.0;
/// audit-cold warms its reference cache for this long before timing.
constexpr double kColdWarmupS = 2.0;
/// A timed window runs in slices of about this long, with a host-speed
/// calibration between them.
constexpr double kSliceS = 1.0;
/// Traced runs page the event log after this many of the tracer
/// connection's own requests (the ring keeps 256 events per worker shard).
constexpr std::size_t kTailEvery = 100;

/// The result line's metrics, in BENCHMARK.json's order: end-to-end with
/// --trace 0, per-layer with --trace 1. A run whose result would differ
/// from its list fails instead of printing it.
constexpr std::array<const char*, 5> kEndToEndMetrics = {
    "setup_s", "req_per_s", "latency_p50_ms", "latency_p90_ms",
    "peak_rss_mib"};
constexpr std::array<const char*, 22> kPerLayerMetrics = {
    "svc.server_us.p50",        "svc.queue_us.p50",
    "svc.parse_us.p50",         "svc.serialize_us.p50",
    "core.eval_us.p50",         "net.wire_us.p50",
    "svc.parse_request_us",     "core.bank_build_ms",
    "core.scan_ms.auto",        "core.scan_ms.approx",
    "persist.durable_append_us", "svc.ref_cache_hit_ratio",
    "store.rows_per_set_leak",  "inc.index_hit_ratio",
    "inc.bound_skip_ratio",     "inc.rebuild_chunks_per_req",
    "core.evals_per_req",       "core.bank_builds",
    "core.bank_appends_per_req", "persist.wal_bytes_per_append",
    "trace.coverage",           "trace.overhead_pct"};

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Arguments
// ---------------------------------------------------------------------------

struct Args {
  Workload workload = Workload::kAuditHot;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string infoleak;  ///< the server binary
  std::string workdir;   ///< scratch space; each run makes a fresh subdir
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) kv[argv[i]] = argv[i + 1];
  if (argc % 2 != 1 || !kv.count("--workload") || !kv.count("--infoleak") ||
      !kv.count("--workdir")) {
    return false;
  }
  auto w = ParseWorkload(kv["--workload"]);
  if (!w) return false;
  args->workload = *w;
  if (kv.count("--seed")) {
    args->seed = std::strtoull(kv["--seed"].c_str(), nullptr, 10);
  }
  if (kv.count("--seconds")) args->seconds = std::atof(kv["--seconds"].c_str());
  if (kv.count("--trace")) args->trace = kv["--trace"] == "1";
  args->infoleak = kv["--infoleak"];
  args->workdir = kv["--workdir"];
  if (kv.count("--commit")) args->commit = kv["--commit"];
  if (kv.count("--source-digest")) args->source_digest = kv["--source-digest"];
  return args->seconds > 0;
}

// ---------------------------------------------------------------------------
// Report: every metric printed by name with unit and sample count; the
// contract's metrics also go into the final JSON line.
// ---------------------------------------------------------------------------

class Report {
 public:
  /// Prints a metric; `in_result` also puts it in the final JSON line.
  void Value(const std::string& name, double value, const std::string& unit,
             std::size_t samples, bool in_result) {
    std::printf("metric %-30s %.17g %s (n=%zu)\n", name.c_str(), value,
                unit.c_str(), samples);
    if (in_result) result_.emplace_back(name, unit, value);
  }

  /// Prints a percentile (scaled from microseconds by `scale`), or marks it
  /// unsupported. An unsupported percentile cannot enter the result.
  void Pct(const std::string& name, const Percentile& p, double scale,
           const std::string& unit, bool in_result) {
    if (!p.supported) {
      std::printf(
          "metric %-30s unsupported %s (n=%zu, fewer than %zu beyond)\n",
          name.c_str(), unit.c_str(), p.samples, kMinSamplesBeyond);
      if (in_result) unsupported_.push_back(name);
      return;
    }
    Value(name, p.value * scale, unit, p.samples, in_result);
  }

  /// Records a failed check; the first few are printed.
  void Fail(const std::string& why) {
    if (++failures_ <= 20) std::printf("check failed: %s\n", why.c_str());
  }

  bool ok() const { return failures_ == 0; }

  std::vector<std::string> result_names() const {
    std::vector<std::string> names;
    for (const auto& [name, unit, value] : result_) names.push_back(name);
    return names;
  }
  const std::vector<std::string>& unsupported() const { return unsupported_; }

  std::string ResultLine(uint64_t attempted, uint64_t failed) const {
    std::string out = std::string("{\"correct\":") +
                      (ok() && failed == 0 ? "true" : "false") +
                      ",\"attempted\":" + std::to_string(attempted) +
                      ",\"failed\":" + std::to_string(failed) +
                      ",\"metrics\":{";
    for (std::size_t i = 0; i < result_.size(); ++i) {
      const auto& [name, unit, value] = result_[i];
      char num[64];
      // A failed request is infinitely slow; JSON has no infinity.
      std::snprintf(num, sizeof num, "%.17g",
                    std::isfinite(value) ? value : 1.7976931348623157e308);
      out += (i > 0 ? "," : "") + infoleak::svc::JsonQuote(name) +
             ":{\"value\":" + num + ",\"unit\":" +
             infoleak::svc::JsonQuote(unit) + "}";
    }
    return out + "}}";
  }

 private:
  std::vector<std::tuple<std::string, std::string, double>> result_;
  std::vector<std::string> unsupported_;
  uint64_t failures_ = 0;
};

// ---------------------------------------------------------------------------
// Server lifecycle
// ---------------------------------------------------------------------------

/// A fresh scratch directory for one run, removed when the run ends.
class RunDir {
 public:
  explicit RunDir(const std::string& parent) {
    path_ = fs::path(parent) /
            ("run-" + std::to_string(getpid()) + "-" +
             std::to_string(Clock::now().time_since_epoch().count()));
    fs::create_directories(path_);
  }
  ~RunDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

/// Everything a server start needs: the store file (or a template data
/// directory each durable start copies), and a counter naming the copies.
struct ServerRecipe {
  std::string binary;
  Workload workload;
  fs::path store_csv;
  fs::path data_template;
  fs::path scratch;
  int starts = 0;

  Result<std::unique_ptr<ServerProcess>> Start() {
    std::vector<std::string> args{"--port", "0", "--workers",
                                  std::to_string(kServerWorkers),
                                  "--cache-refs", "64", "--queue-depth", "128",
                                  "--deadline-ms", "10000", "--stats",
                                  "--stats-format", "json"};
    if (workload == Workload::kIngestDurable) {
      // A fresh copy every time: recovery of a snapshot plus an empty WAL.
      const fs::path dir = scratch / ("data-" + std::to_string(starts));
      std::error_code ec;
      fs::copy(data_template, dir, fs::copy_options::recursive, ec);
      if (ec) return Status::Internal("copy data dir: " + ec.message());
      args.insert(args.end(), {"--data-dir", dir.string(), "--fsync", "always",
                               "--snapshot-every", "0"});
      last_data_dir = dir;
    } else {
      args.insert(args.end(), {"--db", store_csv.string()});
    }
    ++starts;
    return ServerProcess::Start(binary, args, kStartTimeoutS);
  }

  fs::path last_data_dir;
};

/// The generator's first 10,000 records as a durable data directory: one
/// snapshot and an empty WAL.
Status BuildDataTemplate(const Inputs& in, const fs::path& dir) {
  infoleak::persist::DurableStore::Options opts;
  opts.fsync = infoleak::persist::FsyncMode::kNever;
  auto store = infoleak::persist::DurableStore::Open(dir.string(), opts);
  if (!store.ok()) return store.status();
  for (const Record& r : in.base) {
    auto id = (*store)->Append(r);
    if (!id.ok()) return id.status();
  }
  return (*store)->Compact();
}

uint64_t DirBytes(const fs::path& dir) {
  uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

Result<JsonValue> CallJson(int port, const std::string& line) {
  auto client = infoleak::svc::Client::Connect("127.0.0.1", port, 30000);
  if (!client.ok()) return client.status();
  auto reply = client->CallRaw(line);
  if (!reply.ok()) return reply.status();
  return infoleak::svc::ParseJson(*reply);
}

// ---------------------------------------------------------------------------
// Load generation
// ---------------------------------------------------------------------------

/// One request the driver sent.
struct Sample {
  uint32_t stream = 0;
  uint32_t pos = 0;            ///< index into the stream
  bool transport_ok = false;
  double latency_us = 0.0;     ///< send of the line to receipt of the reply
  /// ingest-durable set-leak: the acknowledged store size at send.
  std::size_t min_records = 0;
  std::string response;
};

/// One request event as the server's `tail` verb reports it.
struct Event {
  std::string verb;
  double total_us = 0.0;
  std::map<std::string, double> phases_us;
  double records = 0.0;
};

struct Window {
  double seconds = 0.0;        ///< sum of the slices; calibration excluded
  std::vector<Sample> samples;
  std::vector<Event> events;   ///< traced windows only
};

/// A stream position shared across windows so warm-up and timed requests
/// continue one stream instead of repeating its head.
struct Cursor {
  std::vector<std::size_t> pos;
};

/// Pages the server's event log through one connection: events with an id
/// above the cursor, newest 1000 at most (the ring is lossy, so a busy
/// workload is sampled rather than fully covered).
Status PageEvents(infoleak::svc::Client& client, uint64_t* after_id,
                  std::vector<Event>* out) {
  auto reply = client.CallRaw(R"({"verb":"tail","count":1000,"after_id":)" +
                              std::to_string(*after_id) + "}");
  if (!reply.ok()) return reply.status();
  auto parsed = infoleak::svc::ParseJson(*reply);
  if (!parsed.ok()) return parsed.status();
  const JsonValue* events = parsed->Find("events");
  if (events == nullptr || !events->is_array()) {
    return Status::Internal("tail without events: " + *reply);
  }
  for (const JsonValue& e : events->items()) {
    *after_id =
        std::max(*after_id, static_cast<uint64_t>(e.GetNumber("id", 0)));
    Event ev;
    ev.verb = e.GetString("verb", "");
    if (ev.verb == "tail" || ev.verb == "stats" || ev.verb == "ping") continue;
    ev.total_us = e.GetNumber("total_us", 0);
    ev.records = e.GetNumber("records", 0);
    if (const JsonValue* phases = e.Find("phases"); phases != nullptr) {
      for (const auto& [name, value] : phases->members()) {
        ev.phases_us[name] = value.as_number();
      }
    }
    out->push_back(std::move(ev));
  }
  return Status::OK();
}

/// Runs the workload's connections for one window, in slices of about
/// kSliceS, with a host-speed calibration into `speed` before the first
/// slice and after each one, while every connection is parked. Closed loop:
/// each connection sends its next request when the previous reply is in.
/// The window ends after `seconds` of slices, except on ingest-durable:
/// there the appending connection sends its fixed record list, the reading
/// connection sends one set-leak per acknowledged append until the appends
/// are done, and the window ends with the slice they end in.
Window RunWindow(const Inputs& in, int port, double seconds, bool trace,
                 Cursor* cursor, SpeedLog* speed) {
  const bool ingest = in.workload == Workload::kIngestDurable;
  const std::size_t conns = in.streams.size();
  const std::size_t tracer = ingest ? 1 : 0;
  // ingest-durable: appends acknowledged (store size) and whether the
  // appending connection is done; the reading connection waits on ack_cv.
  std::atomic<std::size_t> acked{in.base.size()};
  std::atomic<bool> appends_done{false};
  std::mutex ack_mu;
  std::condition_variable ack_cv;
  std::vector<std::vector<Sample>> samples(conns);
  std::vector<Event> events;
  cursor->pos.resize(conns, 0);

  // Slice hand-off: the coordinator sets `slice` and `slice_end`; each
  // connection runs that slice, then counts itself into `parked`.
  std::mutex mu;
  std::condition_variable cv;
  int slice = -1;
  bool finished = false;
  std::size_t parked = 0;
  Clock::time_point slice_end;

  auto run = [&](std::size_t c) {
    const auto& stream = in.streams[c];
    const bool appender = ingest && c == 0;
    auto client = infoleak::svc::Client::Connect("127.0.0.1", port, 30000);
    uint64_t after_id = 0;
    std::size_t sent = 0;
    if (trace && c == tracer && client.ok()) {
      // Start the cursor past everything the warm-up left in the log.
      std::vector<Event> before;
      (void)PageEvents(*client, &after_id, &before);
    }
    std::size_t reads_sent = 0;  // ingest-durable's reading connection
    for (int mine = 0;; ++mine) {
      Clock::time_point end;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return slice >= mine || finished; });
        if (slice < mine) break;
        end = slice_end;
      }
      while (true) {
        if (ingest && !appender) {
          // One read per acknowledged append, so every run has one mix.
          std::unique_lock<std::mutex> lock(ack_mu);
          ack_cv.wait_until(lock, end, [&] {
            return appends_done.load() ||
                   acked.load() - in.base.size() > reads_sent;
          });
          if (appends_done.load()) break;
          if (acked.load() - in.base.size() <= reads_sent) break;  // slice over
          ++reads_sent;
        }
        if (appender && cursor->pos[c] >= stream.size()) break;
        if (Clock::now() >= end) break;
        const std::size_t pos = cursor->pos[c]++ % stream.size();
        Sample s;
        s.stream = static_cast<uint32_t>(c);
        s.pos = static_cast<uint32_t>(pos);
        s.min_records = acked.load();
        const Clock::time_point a = Clock::now();
        if (client.ok()) {
          auto reply = client->CallRaw(stream[pos].line);
          s.latency_us =
              std::chrono::duration<double, std::micro>(Clock::now() - a)
                  .count();
          if (reply.ok()) {
            s.transport_ok = true;
            s.response = std::move(reply).value();
          } else {
            // Reconnect once per failure; a dead server fails every request.
            client = infoleak::svc::Client::Connect("127.0.0.1", port, 30000);
          }
        }
        if (appender && s.transport_ok) {
          {
            std::lock_guard<std::mutex> lock(ack_mu);
            ++acked;
          }
          ack_cv.notify_all();
        }
        samples[c].push_back(std::move(s));
        if (trace && c == tracer && ++sent % kTailEvery == 0 && client.ok()) {
          (void)PageEvents(*client, &after_id, &events);
        }
      }
      if (appender && cursor->pos[c] >= stream.size()) {
        {
          std::lock_guard<std::mutex> lock(ack_mu);
          appends_done = true;
        }
        ack_cv.notify_all();
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        ++parked;
      }
      cv.notify_all();
    }
    if (trace && c == tracer && client.ok()) {
      (void)PageEvents(*client, &after_id, &events);
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns; ++c) threads.emplace_back(run, c);

  Window w;
  const auto slices =
      static_cast<int>(std::max(1.0, std::round(seconds / kSliceS)));
  const double slice_s = seconds / slices;
  speed->Measure();
  for (int i = 0;; ++i) {
    const Clock::time_point t0 = Clock::now();
    {
      std::lock_guard<std::mutex> lock(mu);
      slice = i;
      parked = 0;
      slice_end = t0 + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(slice_s));
    }
    cv.notify_all();
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return parked == conns; });
    }
    w.seconds += Since(t0);
    speed->Measure();
    if (ingest ? appends_done.load() : i + 1 >= slices) break;
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    finished = true;
  }
  cv.notify_all();
  for (auto& t : threads) t.join();

  for (auto& s : samples) {
    for (auto& x : s) w.samples.push_back(std::move(x));
  }
  w.events = std::move(events);
  return w;
}

/// Sends one request outside any window (warm-up, final checks).
Sample SendOne(int port, const Inputs& in, std::size_t stream, std::size_t pos,
               std::size_t min_records) {
  Sample s;
  s.stream = static_cast<uint32_t>(stream);
  s.pos = static_cast<uint32_t>(pos);
  s.min_records = min_records;
  auto client = infoleak::svc::Client::Connect("127.0.0.1", port, 30000);
  if (!client.ok()) return s;
  auto raw = client->CallRaw(in.streams[stream][pos].line);
  if (raw.ok()) {
    s.transport_ok = true;
    s.response = std::move(raw).value();
  }
  return s;
}

/// Brings the server to steady state before timing: audit-hot and
/// ingest-durable query every reference until its materialized index
/// answers; audit-cold churns its reference cache for kColdWarmupS;
/// frontier-sweep sends one request. Every warm-up reply is checked too.
Status WarmUp(const Inputs& in, int port, Cursor* cursor,
              std::vector<Sample>* checked, SpeedLog* speed) {
  switch (in.workload) {
    case Workload::kAuditCold: {
      Window w = RunWindow(in, port, kColdWarmupS, false, cursor, speed);
      for (auto& s : w.samples) checked->push_back(std::move(s));
      return Status::OK();
    }
    case Workload::kFrontierSweep: {
      checked->push_back(SendOne(port, in, 0, 0, 0));
      cursor->pos.assign(in.streams.size(), 1);
      return Status::OK();
    }
    case Workload::kAuditHot:
    case Workload::kIngestDurable:
      break;
  }
  // A set-leak request for every reference, found in the read stream.
  const std::size_t reads = in.workload == Workload::kIngestDurable ? 1 : 0;
  std::vector<std::size_t> first(in.refs.size(), SIZE_MAX);
  for (std::size_t i = 0; i < in.streams[reads].size(); ++i) {
    const Request& r = in.streams[reads][i];
    if (r.verb == Verb::kSetLeak && first[r.ref] == SIZE_MAX) first[r.ref] = i;
  }
  const Clock::time_point t0 = Clock::now();
  for (std::size_t ref = 0; ref < in.refs.size(); ++ref) {
    if (first[ref] == SIZE_MAX) continue;
    while (true) {
      Sample s = SendOne(port, in, reads, first[ref], in.base.size());
      const bool indexed =
          s.response.find("\"path\":\"index\"") != std::string::npos;
      checked->push_back(std::move(s));
      if (indexed) break;
      if (Since(t0) > 60.0) {
        return Status::DeadlineExceeded("reference index never came up");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Measurements
// ---------------------------------------------------------------------------

Verb PrimaryVerb(Workload w) {
  switch (w) {
    case Workload::kIngestDurable: return Verb::kAppend;
    case Workload::kFrontierSweep: return Verb::kFrontier;
    default: return Verb::kSetLeak;
  }
}

bool SampleOk(const Sample& s) {
  return s.transport_ok &&
         s.response.find("\"ok\":true") != std::string::npos;
}

/// Client latencies (µs) of one verb, failures as infinitely slow; sorted.
std::vector<double> Latencies(const Inputs& in, const std::vector<Sample>& ss,
                              std::optional<Verb> verb) {
  std::vector<double> out;
  for (const Sample& s : ss) {
    if (verb && in.streams[s.stream][s.pos].verb != *verb) continue;
    out.push_back(SampleOk(s) ? s.latency_us : kFailedLatency);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Sorted microsecond values of one phase ("total" for the event total)
/// over events of `verb` (all verbs when empty) that ran the phase.
std::vector<double> PhaseValues(const std::vector<Event>& events,
                                const std::string& phase,
                                const std::string& verb = "") {
  std::vector<double> out;
  for (const Event& e : events) {
    if (!verb.empty() && e.verb != verb) continue;
    if (phase == "total") {
      out.push_back(e.total_us);
    } else if (auto it = e.phases_us.find(phase); it != e.phases_us.end()) {
      out.push_back(it->second);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// A counter from the server's `--stats --stats-format json` dump at drain,
/// summed over series whose labels include `label` = `value` (any when
/// `label` is empty).
double DrainCounter(const JsonValue& dump, const std::string& name,
                    const std::string& label = "",
                    const std::string& value = "") {
  double total = 0;
  const JsonValue* counters = dump.Find("counters");
  if (counters == nullptr) return 0;
  for (const JsonValue& c : counters->items()) {
    if (c.GetString("name", "") != name) continue;
    if (!label.empty()) {
      const JsonValue* labels = c.Find("labels");
      if (labels == nullptr || labels->GetString(label, "") != value) continue;
    }
    total += c.GetNumber("value", 0);
  }
  return total;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Median wall time of `fn` over `reps` calls, in `unit_scale` per second
/// (1e3 → ms, 1e6 → µs), divided by `per_call` operations per call.
double TimeMedian(int reps, double unit_scale, double per_call,
                  const std::function<void()>& fn) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    times.push_back(Since(t0) * unit_scale / per_call);
  }
  return Median(times);
}

/// Direct timed calls into layer public functions on the workload's own
/// inputs: their cost without queueing or network.
void DirectCalls(const Inputs& in, const fs::path& scratch, Report* report) {
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < 256; ++i) {
    lines.push_back(in.streams[0][i % in.streams[0].size()].line);
  }
  std::size_t parsed = 0;
  const double parse_us = TimeMedian(20, 1e6, lines.size(), [&] {
    for (const auto& line : lines) {
      parsed += infoleak::svc::ParseRequest(line).ok() ? 1 : 0;
    }
  });
  report->Value("svc.parse_request_us", parse_us, "us", 20 * lines.size(),
                true);

  const auto wm = infoleak::WeightModel::Parse("").value();
  const infoleak::PreparedReference prepared(in.refs[0].record, wm);
  const double build_ms = TimeMedian(5, 1e3, 1, [&] {
    (void)infoleak::ColumnBank::FromDatabase(in.base, prepared);
  });
  report->Value("core.bank_build_ms", build_ms, "ms", 5, true);

  const auto bank = infoleak::ColumnBank::FromDatabase(in.base, prepared);
  const infoleak::AutoLeakage auto_engine;
  const infoleak::ApproxLeakage approx_engine;
  for (const auto& [name, engine] :
       {std::pair<std::string, const infoleak::LeakageEngine*>{"auto",
                                                               &auto_engine},
        {"approx", &approx_engine}}) {
    const double scan_ms = TimeMedian(5, 1e3, 1, [&] {
      (void)infoleak::SetLeakageColumnar(bank, *engine);
    });
    report->Value("core.scan_ms." + name, scan_ms, "ms", 5, true);
  }

  infoleak::persist::DurableStore::Options opts;
  opts.fsync = infoleak::persist::FsyncMode::kAlways;
  auto store = infoleak::persist::DurableStore::Open(
      (scratch / "append-probe").string(), opts);
  if (!store.ok()) {
    report->Fail("durable append probe: " + store.status().ToString());
    return;
  }
  std::size_t next = 0;
  const double append_us = TimeMedian(200, 1e6, 1, [&] {
    if (!(*store)->Append(in.base[next++ % in.base.size()]).ok()) {
      report->Fail("durable append probe failed");
    }
  });
  report->Value("persist.durable_append_us", append_us, "us", 200, true);
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

struct Served {
  Window window;
  std::vector<Sample> extra;   ///< warm-up and final-check requests
  JsonValue stats_before;
  JsonValue stats_after;
  JsonValue drain_counters;
  double peak_rss_mib = 0;
  std::pair<double, double> cpu_s;  ///< server user, system CPU seconds
  double disk_bytes_per_record = 0;
  std::string simd;
};

/// One served pass: warm up, time a window, check the final state, drain.
Result<Served> ServeOnce(const Inputs& in, ServerRecipe* recipe,
                         std::unique_ptr<ServerProcess> server, double seconds,
                         bool trace, Report* report, SpeedLog* speed) {
  Served out;
  const int port = server->port();
  Cursor cursor;
  if (Status s = WarmUp(in, port, &cursor, &out.extra, speed); !s.ok()) {
    return s;
  }

  auto stats = CallJson(port, R"({"verb":"stats"})");
  if (!stats.ok()) return stats.status();
  out.stats_before = *stats;
  if (const JsonValue* build = stats->Find("build")) {
    out.simd = build->GetString("simd", "");
  }
  const bool ingest = in.workload == Workload::kIngestDurable;
  const uint64_t disk_before = ingest ? DirBytes(recipe->last_data_dir) : 0;

  out.window = RunWindow(in, port, seconds, trace, &cursor, speed);

  stats = CallJson(port, R"({"verb":"stats"})");
  if (!stats.ok()) return stats.status();
  out.stats_after = *stats;
  out.peak_rss_mib = static_cast<double>(server->StatusKb("VmHWM")) / 1024.0;
  out.cpu_s = server->CpuSeconds();
  if (ingest) {
    out.disk_bytes_per_record =
        static_cast<double>(DirBytes(recipe->last_data_dir) - disk_before) /
        static_cast<double>(in.appended.size());
    // Final per-reference answers over base + every appended record.
    const std::size_t total = in.base.size() + in.appended.size();
    std::vector<bool> seen(in.refs.size(), false);
    for (std::size_t i = 0; i < in.streams[1].size(); ++i) {
      const Request& r = in.streams[1][i];
      if (seen[r.ref]) continue;
      seen[r.ref] = true;
      Sample s = SendOne(port, in, 1, i, total);
      if (s.response.find("\"records\":" + std::to_string(total)) ==
          std::string::npos) {
        report->Fail("final set-leak did not cover every appended record");
      }
      out.extra.push_back(std::move(s));
    }
  }

  const DrainReport drain = server->Stop(kDrainGraceS);
  if (!drain.clean()) {
    report->Fail("server did not drain cleanly (shed " +
                 std::to_string(drain.shed) + ", deadline-missed " +
                 std::to_string(drain.deadline_missed) + "): " + drain.output);
  }
  auto counters = infoleak::svc::ParseJson(drain.metrics_json);
  if (counters.ok()) {
    out.drain_counters = std::move(counters).value();
  } else {
    report->Fail("no counter dump at drain");
  }
  return out;
}

void EndToEnd(const Inputs& in, const std::vector<double>& setup,
              const SpeedLog& speed, const Served& s, Report* r) {
  // Times in the result are scaled to the reference host speed; the wall
  // readings they come from are report lines.
  const double k = speed.Speed();
  r->Value("setup_s", Median(setup) * k, "s", setup.size(), true);
  const auto ok = static_cast<double>(std::count_if(
      s.window.samples.begin(), s.window.samples.end(), SampleOk));
  r->Value("req_per_s", ok / (s.window.seconds * k), "1/s",
           s.window.samples.size(), true);
  const auto primary =
      Latencies(in, s.window.samples, PrimaryVerb(in.workload));
  r->Pct("latency_p50_ms", PercentileOf(primary, 0.50), 1e-3 * k, "ms", true);
  r->Pct("latency_p90_ms", PercentileOf(primary, 0.90), 1e-3 * k, "ms", true);
  r->Value("peak_rss_mib", s.peak_rss_mib, "MiB", 1, true);

  r->Value("host.speed", k, "1", speed.size(), false);
  r->Value("host.speed.memory", speed.MemorySpeed(), "1", speed.size(),
           false);
  r->Value("host.speed.wakeup", speed.WakeupSpeed(), "1", speed.size(),
           false);
  r->Value("wall.setup_s", Median(setup), "s", setup.size(), false);
  r->Value("wall.req_per_s", ok / s.window.seconds, "1/s",
           s.window.samples.size(), false);
  r->Pct("wall.latency_p50_ms", PercentileOf(primary, 0.50), 1e-3, "ms", false);
  r->Pct("wall.latency_p90_ms", PercentileOf(primary, 0.90), 1e-3, "ms", false);
  for (std::size_t i = 0; i < setup.size(); ++i) {
    r->Value("wall.setup_s." + std::to_string(i), setup[i], "s", 1, false);
  }
  r->Value("server_cpu_user_s", s.cpu_s.first, "s", 1, false);
  r->Value("server_cpu_sys_s", s.cpu_s.second, "s", 1, false);
  r->Value("window_s", s.window.seconds, "s", 1, false);
  // Per verb, for every verb the workload sends; scaled like the result.
  for (Verb verb :
       {Verb::kSetLeak, Verb::kLeak, Verb::kAppend, Verb::kFrontier}) {
    const auto lat = Latencies(in, s.window.samples, verb);
    if (lat.empty()) continue;
    std::string name(VerbName(verb));
    std::replace(name.begin(), name.end(), '-', '_');
    for (const auto& [label, q] :
         {std::pair<const char*, double>{"p50", 0.50}, {"p90", 0.90},
          {"p99", 0.99}}) {
      r->Pct(name + "_" + label + "_ms", PercentileOf(lat, q), 1e-3 * k, "ms",
             false);
    }
  }
  if (in.workload == Workload::kIngestDurable) {
    r->Value("disk_bytes_per_record", s.disk_bytes_per_record, "B",
             in.appended.size(), false);
  }
}

void PerLayer(const Inputs& in, const Served& plain, const Served& traced,
              const fs::path& scratch, Report* r) {
  const auto& ev = traced.window.events;
  const std::string primary(VerbName(PrimaryVerb(in.workload)));
  // Phase times: p50 over the traced events that ran the phase.
  const Percentile server =
      PercentileOf(PhaseValues(ev, "total", primary), 0.5);
  r->Pct("svc.server_us.p50", server, 1, "us", true);
  for (const char* phase : {"queue", "parse", "serialize"}) {
    r->Pct(std::string("svc.") + phase + "_us.p50",
           PercentileOf(PhaseValues(ev, phase), 0.5), 1, "us", true);
  }
  r->Pct("core.eval_us.p50", PercentileOf(PhaseValues(ev, "eval"), 0.5), 1,
         "us", true);
  // Wire and client overhead: the client's span minus the server's total,
  // as a difference of medians (events carry no client correlation id).
  const Percentile client = PercentileOf(
      Latencies(in, traced.window.samples, PrimaryVerb(in.workload)), 0.5);
  Percentile wire;
  wire.supported = client.supported && server.supported;
  wire.samples = std::min(client.samples, server.samples);
  wire.value = client.value - server.value;
  r->Pct("net.wire_us.p50", wire, 1, "us", true);

  DirectCalls(in, scratch, r);

  // Counts: the drain dump covers the traced server's whole life (warm-up
  // included), so per-request ratios divide by every workload request it
  // served; the `stats` deltas cover the timed window only.
  const JsonValue& dump = traced.drain_counters;
  const double requests =
      static_cast<double>(traced.window.samples.size() + traced.extra.size());
  const char* cache = "infoleak_svc_reference_cache_total";
  const double hits = DrainCounter(dump, cache, "result", "hit");
  const double misses = DrainCounter(dump, cache, "result", "miss");
  r->Value("svc.ref_cache_hit_ratio", Ratio(hits, hits + misses), "1",
           static_cast<std::size_t>(hits + misses), true);
  std::vector<double> rows;
  for (const Event& e : ev) {
    if (e.verb == "set-leak") rows.push_back(e.records);
  }
  double rows_sum = 0;
  for (double x : rows) rows_sum += x;
  r->Value("store.rows_per_set_leak", Ratio(rows_sum, rows.size()), "count",
           rows.size(), true);
  auto delta = [&](const char* object, const char* key) {
    auto get = [&](const JsonValue& stats) {
      const JsonValue* o = object[0] ? stats.Find(object) : &stats;
      return o == nullptr ? 0.0 : o->GetNumber(key, 0.0);
    };
    return get(traced.stats_after) - get(traced.stats_before);
  };
  const double index_hits = delta("index", "hits");
  const double fallbacks = delta("index", "fallbacks");
  r->Value("inc.index_hit_ratio", Ratio(index_hits, index_hits + fallbacks),
           "1", static_cast<std::size_t>(index_hits + fallbacks), true);
  const double appends = delta("index", "appends");
  const double registered =
      traced.stats_after.Find("index") != nullptr
          ? traced.stats_after.Find("index")->GetNumber("registered", 0.0)
          : 0.0;
  r->Value("inc.bound_skip_ratio",
           Ratio(delta("index", "bound_skips"), appends * registered), "1",
           static_cast<std::size_t>(appends * registered), true);
  const auto per_req = [&](const char* name) {
    return Ratio(DrainCounter(dump, name), requests);
  };
  const auto n_req = static_cast<std::size_t>(requests);
  r->Value("inc.rebuild_chunks_per_req",
           per_req("infoleak_inc_rebuild_chunks_total"), "count", n_req, true);
  r->Value("core.evals_per_req", per_req("infoleak_leakage_evaluations_total"),
           "count", n_req, true);
  r->Value("core.bank_builds",
           DrainCounter(dump, "infoleak_column_bank_builds_total"), "count",
           n_req, true);
  r->Value("core.bank_appends_per_req",
           per_req("infoleak_column_bank_appends_total"), "count", n_req, true);
  r->Value("persist.wal_bytes_per_append",
           Ratio(delta("", "wal_offset"), appends), "B",
           static_cast<std::size_t>(appends), true);

  const std::size_t sent = traced.window.samples.size();
  r->Value("trace.coverage", Ratio(ev.size(), sent), "1", sent, true);
  const auto rate = [](const Served& s) {
    return Ratio(std::count_if(s.window.samples.begin(), s.window.samples.end(),
                               SampleOk),
                 s.window.seconds);
  };
  r->Value("trace.overhead_pct",
           100.0 * (rate(plain) - rate(traced)) / rate(plain), "%", sent, true);

  // Layer phases that only some workloads exercise: printed with their
  // sample counts where they ran, not part of the result line.
  const auto extra = [&](const std::string& name, const std::string& phase,
                         const std::string& verb, double q) {
    const auto values = PhaseValues(ev, phase, verb);
    if (!values.empty()) r->Pct(name, PercentileOf(values, q), 1, "us", false);
  };
  extra("svc.queue_us.p99", "queue", "", 0.99);
  for (const char* verb : {"set-leak", "leak", "append", "frontier"}) {
    for (const auto& [label, q] :
         {std::pair<const char*, double>{"p50", 0.5}, {"p99", 0.99}}) {
      extra(std::string("svc.server_us.") + label + "." + verb, "total", verb,
            q);
      extra(std::string("core.eval_us.") + label + "." + verb, "eval", verb, q);
    }
  }
  extra("store.catchup_us.p50", "catchup", "set-leak", 0.5);
  extra("store.apply_us.p50", "eval", "append", 0.5);
  extra("inc.publish_us.p50", "publish", "", 0.5);
  extra("inc.publish_us.p99", "publish", "", 0.99);
  extra("persist.fsync_us.p50", "fsync", "", 0.5);
  extra("persist.fsync_us.p99", "fsync", "", 0.99);
  extra("anon.anonymize_us.p50", "anonymize", "", 0.5);
  extra("er.resolve_us.p50", "resolve", "", 0.5);
}

int Run(const Args& args) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "perfbench: refusing a non-Release build (timings with "
               "assertions on are not comparable)\n");
  return 2;
#endif
  auto inputs = MakeInputs(args.workload, args.seed, args.seconds);
  if (!inputs.ok()) {
    std::fprintf(stderr, "inputs: %s\n", inputs.status().ToString().c_str());
    return 1;
  }
  const Inputs& in = *inputs;
  auto answers = ComputeAnswers(in);
  if (!answers.ok()) {
    std::fprintf(stderr, "answers: %s\n", answers.status().ToString().c_str());
    return 1;
  }

  RunDir dir(args.workdir);
  ServerRecipe recipe;
  recipe.binary = args.infoleak;
  recipe.workload = in.workload;
  recipe.scratch = dir.path();
  recipe.store_csv = dir.path() / "store.csv";
  recipe.data_template = dir.path() / "template";
  Status prepared =
      in.workload == Workload::kIngestDurable
          ? BuildDataTemplate(in, recipe.data_template)
          : infoleak::WriteStringToFile(recipe.store_csv.string(),
                                        in.store_csv);
  if (!prepared.ok()) {
    std::fprintf(stderr, "store: %s\n", prepared.ToString().c_str());
    return 1;
  }

  Report report;
  // Set-up time: several starts, the last of which serves the timed window.
  // A traced run reports no set-up time and starts once.
  // Every calibration of the run; its median speed scales the run's times.
  SpeedLog speed;
  std::vector<double> setup;
  std::unique_ptr<ServerProcess> server;
  for (int i = 0; i < (args.trace ? 1 : kSetupRepeats); ++i) {
    if (server != nullptr && !server->Stop(kDrainGraceS).clean()) {
      report.Fail("an idle server did not drain cleanly");
    }
    speed.Measure();
    auto started = recipe.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "serve: %s\n", started.status().ToString().c_str());
      return 1;
    }
    server = std::move(started).value();
    setup.push_back(server->setup_seconds());
    speed.Measure();
  }
  auto plain = ServeOnce(in, &recipe, std::move(server), args.seconds, false,
                         &report, &speed);
  if (!plain.ok()) {
    std::fprintf(stderr, "run: %s\n", plain.status().ToString().c_str());
    return 1;
  }
  std::optional<Served> traced;
  if (args.trace) {
    auto started = recipe.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "serve: %s\n", started.status().ToString().c_str());
      return 1;
    }
    auto run = ServeOnce(in, &recipe, std::move(started).value(), args.seconds,
                         true, &report, &speed);
    if (!run.ok()) {
      std::fprintf(stderr, "traced run: %s\n", run.status().ToString().c_str());
      return 1;
    }
    traced = std::move(run).value();
  }

  // Every answer against the library's offline value.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  auto check = [&](const std::vector<Sample>& samples) {
    for (const Sample& s : samples) {
      ++attempted;
      const Request& req = in.streams[s.stream][s.pos];
      const std::string why =
          s.transport_ok
              ? CheckResponse(in, *answers, req, s.response, {s.min_records})
              : "no reply";
      if (!why.empty()) {
        ++failed;
        report.Fail(std::string(VerbName(req.verb)) + ": " + why);
      }
    }
  };
  for (const Served* s : {&*plain, traced ? &*traced : nullptr}) {
    if (s == nullptr) continue;
    check(s->extra);
    check(s->window.samples);
  }

  const char* scalar = std::getenv("INFOLEAK_FORCE_SCALAR");
  std::printf(
      "provenance {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
      "\"trace\":%d,\"commit\":\"%s\",\"source_digest\":\"%s\","
      "\"nproc\":%u,\"kernel\":\"%s\",\"force_scalar\":\"%s\","
      "\"fsync\":\"%s\",\"server_workers\":%zu,"
      "\"driver_connections\":%zu,\"build\":\"Release\"}\n",
      std::string(WorkloadName(in.workload)).c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, args.commit.c_str(), args.source_digest.c_str(),
      std::thread::hardware_concurrency(), plain->simd.c_str(),
      scalar == nullptr ? "unset" : scalar,
      in.workload == Workload::kIngestDurable ? "always" : "none (in-memory)",
      kServerWorkers, in.streams.size());

  if (args.trace) {
    PerLayer(in, *plain, *traced, dir.path(), &report);
  } else {
    EndToEnd(in, setup, speed, *plain, &report);
  }
  report.Value("fail_ratio", Ratio(failed, attempted), "1", attempted, false);
  if (!report.unsupported().empty()) {
    std::fprintf(stderr,
                 "perfbench: the sample cannot support %s; no result\n",
                 report.unsupported().front().c_str());
    return 3;
  }
  const std::vector<std::string> expected =
      args.trace ? std::vector<std::string>(kPerLayerMetrics.begin(),
                                            kPerLayerMetrics.end())
                 : std::vector<std::string>(kEndToEndMetrics.begin(),
                                            kEndToEndMetrics.end());
  if (report.result_names() != expected) {
    std::fprintf(stderr, "perfbench: result metrics differ from the list\n");
    return 4;
  }
  std::printf("%s\n", report.ResultLine(attempted, failed).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--list") {
    // Names for the self-test to hold against BENCHMARK.json.
    std::string out = "{\"workloads\":[";
    for (std::size_t i = 0; i < perfbench::kWorkloads.size(); ++i) {
      out += (i ? ",\"" : "\"") +
             std::string(perfbench::WorkloadName(perfbench::kWorkloads[i])) +
             "\"";
    }
    auto list = [&](const char* key, const auto& names) {
      out += std::string("],\"") + key + "\":[";
      for (std::size_t i = 0; i < names.size(); ++i) {
        out += (i ? ",\"" : "\"") + std::string(names[i]) + "\"";
      }
    };
    list("end_to_end", perfbench::kEndToEndMetrics);
    list("per_layer", perfbench::kPerLayerMetrics);
    std::printf("%s]}\n", out.c_str());
    return 0;
  }
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --infoleak BIN "
                 "--workdir DIR [--seed N] [--seconds S] [--trace 0|1] "
                 "[--commit C] [--source-digest D]\n");
    return 2;
  }
  return perfbench::Run(args);
}
