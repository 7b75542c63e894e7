// serve_mix -- an in-process ServedDaemon on an ephemeral port with a fresh
// store. Set-up publishes kHotKeys hot keys; then a closed loop of
// min(nproc, kMaxClients) keep-alive clients runs. Each request repeats a
// hot key (a store read) except one request per kColdEvery, at a seed-drawn
// position in
// each block, which asks for a key never seen before (problem + seed +
// trace + publish) and is followed by a repeat of that key (now a hit,
// whose contour must equal the cold body's). Cold jobs hold workers while
// hits queue behind them, which is what exposes the warm-hit tail.
//
// Keys differ by the data transition time in steps of 1e-20 s around its
// 100 ps default: physically inert, key-distinct.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "shtrace/serve/http.hpp"
#include "shtrace/serve/json.hpp"
#include "shtrace/serve/request.hpp"
#include "shtrace/serve/server.hpp"
#include "shtrace/store/cache.hpp"

namespace perfbench {

namespace {

using namespace shtrace;
using namespace shtrace::serve;
namespace fs = std::filesystem;

// Hot keys, clients and maxPoints follow the warm-throughput phase of the
// committed soak (tools/shtrace_load.cpp soak, results/bench_serve.json):
// two warm keys over four keep-alive connections, maxPoints 4. The soak
// has no cold keys in that phase and the repo holds no traffic data, so
// one cold key per kColdEvery requests is an assumption (README.md).
constexpr int kHotKeys = 2;
constexpr unsigned kMaxClients = 4;
constexpr int kColdEvery = 50;
constexpr int kDaemonSetups = 10;

std::string requestBody(std::int64_t variant, int maxPoints) {
    JsonValue cellOptions = JsonValue::object();
    cellOptions.set("dataTransitionTime",
                    0.1e-9 + static_cast<double>(variant) * 1e-20);
    JsonValue bounds = JsonValue::object();
    bounds.set("setupMin", 120e-12);
    bounds.set("setupMax", 560e-12);
    bounds.set("holdMin", 60e-12);
    bounds.set("holdMax", 460e-12);
    JsonValue tracer = JsonValue::object();
    tracer.set("bounds", std::move(bounds));
    tracer.set("stepLength", 8e-12);
    tracer.set("maxPoints", maxPoints);
    JsonValue body = JsonValue::object();
    body.set("cell", "tspc");
    body.set("cellOptions", std::move(cellOptions));
    body.set("tracer", std::move(tracer));
    return writeJson(body);
}

std::vector<SkewPoint> contourOf(const JsonValue& doc) {
    std::vector<SkewPoint> points;
    if (const JsonValue* contour = doc.find("contour")) {
        for (const JsonValue& row : contour->asArray()) {
            points.push_back({row.find("setup")->asNumber(),
                              row.find("hold")->asNumber()});
        }
    }
    return points;
}

bool sameContour(const std::vector<SkewPoint>& a,
                 const std::vector<SkewPoint>& b) {
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin(),
                      [](const SkewPoint& x, const SkewPoint& y) {
                          return x.setup == y.setup && x.hold == y.hold;
                      });
}

/// True when the response is a 200 whose body says ok.
bool okResponse(const HttpClient::Response& response, const JsonValue& doc) {
    const JsonValue* ok = doc.find("ok");
    return response.status == 200 && ok != nullptr && ok->asBool();
}

bool servedFlag(const JsonValue& doc, const char* flag) {
    const JsonValue* served = doc.find("served");
    const JsonValue* value = served ? served->find(flag) : nullptr;
    return value != nullptr && value->asBool();
}

/// The daemon under test with its own fresh store directory; shut down,
/// joined and removed on destruction.
class Daemon {
public:
    explicit Daemon(fs::path store) : store_(std::move(store)) {
        fs::remove_all(store_);
        fs::create_directories(store_);
        DaemonOptions options;
        options.service.cacheDir = store_.string();
        daemon_ = std::make_unique<ServedDaemon>(options);
        loop_ = std::thread([this] { daemon_->run(); });
    }
    ~Daemon() {
        try {
            daemon_->shutdown();
        } catch (const std::exception& e) {
            std::cerr << "perfbench: daemon shutdown: " << e.what() << "\n";
        }
        loop_.join();
        daemon_.reset();
        std::error_code ignored;
        fs::remove_all(store_, ignored);
    }
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    int port() const { return daemon_->port(); }
    const fs::path& store() const { return store_; }
    CharacterizationService& service() { return daemon_->service(); }

private:
    fs::path store_;
    std::unique_ptr<ServedDaemon> daemon_;
    std::thread loop_;
};

/// One POST; the round-trip time in ms goes to *millis.
HttpClient::Response post(HttpClient& http, const std::string& body,
                          double* millis) {
    const auto start = Clock::now();
    HttpClient::Response response =
        http.request("POST", "/v1/characterize", body);
    *millis = millisSince(start);
    return response;
}

/// What one closed-loop client saw.
struct ClientLog {
    std::vector<double> warmMillis, coldMillis;
    /// Traced only, per hot request: the server's queue and compute time
    /// (its `served` block) and the rest of the round trip.
    std::vector<double> warmQueueMillis, warmComputeMillis, warmOutsideMillis;
    SimStats coldStats;  ///< counters from the cold responses' stats block
    double coldPoints = 0.0;
    std::size_t requests = 0;
    std::vector<std::string> failures;
};

void runClient(int port, int client, std::uint64_t seed, double seconds,
               const std::vector<std::string>& hotBodies, int maxPoints,
               bool traced, ClientLog* log) {
    std::mt19937_64 rng(seed * 1000003 + static_cast<std::uint64_t>(client));
    // Cold variants disjoint per client and per loop (traced runs make a
    // second loop), all above the hot-key range.
    const std::int64_t coldBase = 1'000'000 * (1 + client + (traced ? 8 : 0)) +
                                  static_cast<std::int64_t>(rng() % 500'000);
    std::int64_t coldCount = 0;
    std::uint64_t coldSlot = 0;
    const auto start = Clock::now();
    try {
        HttpClient http(static_cast<std::uint16_t>(port), 120000);
        for (std::uint64_t i = 0; secondsSince(start) < seconds; ++i) {
            if (i % kColdEvery == 0) {
                coldSlot = rng() % kColdEvery;
            }
            double ms = 0.0;
            if (i % kColdEvery == coldSlot) {
                const std::string body =
                    requestBody(coldBase + coldCount++, maxPoints);
                const auto cold = post(http, body, &ms);
                ++log->requests;
                log->coldMillis.push_back(ms);
                const JsonValue coldDoc = parseJson(cold.body);
                if (!okResponse(cold, coldDoc) ||
                    servedFlag(coldDoc, "cacheHit")) {
                    log->failures.push_back("cold request did not compute");
                    continue;
                }
                const JsonValue& stats = *coldDoc.find("stats");
                const auto count = [&](const char* name) {
                    return static_cast<std::uint64_t>(
                        stats.find(name)->asNumber());
                };
                log->coldStats.transientSolves += count("transientSolves");
                log->coldStats.timeSteps += count("timeSteps");
                log->coldStats.newtonIterations += count("newtonIterations");
                log->coldStats.chordIterations += count("chordIterations");
                log->coldStats.luFactorizations += count("luFactorizations");
                log->coldStats.hEvaluations += count("hEvaluations");
                log->coldStats.mpnrIterations += count("mpnrIterations");
                log->coldPoints += static_cast<double>(
                    coldDoc.find("contour")->asArray().size());

                const auto warm = post(http, body, &ms);
                ++log->requests;
                log->warmMillis.push_back(ms);
                const JsonValue warmDoc = parseJson(warm.body);
                if (!okResponse(warm, warmDoc) ||
                    !servedFlag(warmDoc, "cacheHit") ||
                    !sameContour(contourOf(warmDoc), contourOf(coldDoc))) {
                    log->failures.push_back(
                        "repeat of a cold key is not a store hit with the "
                        "cold contour");
                }
                continue;
            }
            const std::string& body = hotBodies[rng() % hotBodies.size()];
            const auto response = post(http, body, &ms);
            ++log->requests;
            log->warmMillis.push_back(ms);
            if (traced) {
                const JsonValue doc = parseJson(response.body);
                const JsonValue* served = doc.find("served");
                const JsonValue* queue =
                    served ? served->find("queueMillis") : nullptr;
                const JsonValue* compute =
                    served ? served->find("computeMillis") : nullptr;
                if (queue != nullptr && compute != nullptr) {
                    log->warmQueueMillis.push_back(queue->asNumber());
                    log->warmComputeMillis.push_back(compute->asNumber());
                    log->warmOutsideMillis.push_back(
                        ms - queue->asNumber() - compute->asNumber());
                }
            }
            if (response.status != 200 ||
                response.body.rfind("{\"ok\":true", 0) != 0 ||
                response.body.find("\"cacheHit\":true") == std::string::npos) {
                log->failures.push_back("hot request was not an ok store hit");
            }
        }
    } catch (const std::exception& e) {
        log->failures.push_back(std::string("client error: ") + e.what());
    }
}

/// The closed loop: all clients for `seconds`, merged.
struct LoopResult {
    ClientLog merged;
    double wall = 0.0;
};

LoopResult runLoop(Report& report, int port, std::uint64_t seed,
                   double seconds, const std::vector<std::string>& hotBodies,
                   int maxPoints, bool traced) {
    const unsigned hc = std::thread::hardware_concurrency();
    const int clients = static_cast<int>(std::clamp(hc, 1u, kMaxClients));
    std::vector<ClientLog> logs(static_cast<std::size_t>(clients));
    std::vector<std::thread> threads;
    const auto start = Clock::now();
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back(runClient, port, c, seed, seconds,
                             std::cref(hotBodies), maxPoints, traced,
                             &logs[static_cast<std::size_t>(c)]);
    }
    for (std::thread& t : threads) {
        t.join();
    }
    LoopResult out;
    out.wall = secondsSince(start);
    ClientLog& m = out.merged;
    for (const ClientLog& log : logs) {
        const auto append = [](std::vector<double>& to,
                               const std::vector<double>& from) {
            to.insert(to.end(), from.begin(), from.end());
        };
        append(m.warmMillis, log.warmMillis);
        append(m.coldMillis, log.coldMillis);
        append(m.warmQueueMillis, log.warmQueueMillis);
        append(m.warmComputeMillis, log.warmComputeMillis);
        append(m.warmOutsideMillis, log.warmOutsideMillis);
        m.coldStats.merge(log.coldStats);
        m.coldPoints += log.coldPoints;
        m.requests += log.requests;
        report.attempt(log.requests);
        for (const std::string& failure : log.failures) {
            report.fail(failure);
        }
    }
    std::cerr << "serve_mix: " << m.requests << " requests, "
              << m.warmMillis.size() << " warm, " << m.coldMillis.size()
              << " cold, " << clients << " clients\n";
    return out;
}

template <typename F>
double medianMillis(int reps, F&& op) {
    std::vector<double> millis;
    for (int i = 0; i < reps; ++i) {
        const auto start = Clock::now();
        op();
        millis.push_back(millisSince(start));
    }
    return median(millis);
}

}  // namespace

void runServeMix(const Options& options, Report& report) {
    const int maxPoints = options.smoke ? 3 : 4;
    std::mt19937_64 rng(options.seed);
    std::set<std::int64_t> hotVariants;
    while (hotVariants.size() < kHotKeys) {
        hotVariants.insert(1 + static_cast<std::int64_t>(rng() % 1000));
    }
    std::vector<std::string> hotBodies;
    for (std::int64_t v : hotVariants) {
        hotBodies.push_back(requestBody(v, maxPoints));
    }

    const fs::path scratch =
        fs::path(options.scratchDir) /
        ("serve-" + std::to_string(::getpid()));
    // Each set-up starts a daemon on a fresh store; the previous one shuts
    // down between set-ups, outside the timer. The last one serves the run.
    std::unique_ptr<Daemon> daemon;
    std::vector<std::vector<SkewPoint>> hotContours;
    SetupTimer setup([&] {
        daemon = std::make_unique<Daemon>(scratch / "store");
        HttpClient http(static_cast<std::uint16_t>(daemon->port()), 120000);
        hotContours.clear();
        for (const std::string& body : hotBodies) {
            double ms = 0.0;
            const auto response = post(http, body, &ms);
            const JsonValue doc = parseJson(response.body);
            if (!okResponse(response, doc)) {
                throw std::runtime_error("perfbench: hot key publish failed");
            }
            hotContours.push_back(contourOf(doc));
        }
    });
    for (int i = 0; i < kDaemonSetups; ++i) {
        daemon.reset();
        setup.run();
    }
    // Every hot key is now a store hit carrying its cold contour.
    {
        HttpClient http(static_cast<std::uint16_t>(daemon->port()), 120000);
        for (std::size_t k = 0; k < hotBodies.size(); ++k) {
            report.run("hot key check", [&] {
                double ms = 0.0;
                const JsonValue doc =
                    parseJson(post(http, hotBodies[k], &ms).body);
                if (!servedFlag(doc, "cacheHit") ||
                    !sameContour(contourOf(doc), hotContours[k])) {
                    report.fail("hot key is not a hit with its cold contour");
                }
            });
        }
    }

    const double budget = options.trace ? options.seconds / 2 : options.seconds;
    const LoopResult loop = runLoop(report, daemon->port(), options.seed,
                                    budget, hotBodies, maxPoints, false);
    std::cout << "{\"samples\": {\"warm\": " << loop.merged.warmMillis.size()
              << ", \"cold\": " << loop.merged.coldMillis.size() << "}}\n";
    if (!options.trace) {
        report.set("setup_s", setup.medianSeconds());
        // The floor of the hit path: the fastest 1% of ~35 000 store hits,
        // which neither queued behind a cold job nor met a host burst (the
        // per-layer p50/p90/p99 keep both).
        report.set("op_ms", quantile(loop.merged.warmMillis, 0.01));
        report.set("peak_rss_mb", peakRssMb());
        daemon.reset();
        fs::remove_all(scratch);
        return;
    }
    report.set("op_p50_ms", median(loop.merged.warmMillis));
    report.set("op_tail_ms", quantile(loop.merged.warmMillis, 0.9));
    report.set("ops_per_s",
               static_cast<double>(loop.merged.requests) / loop.wall);

    const LoopResult traced =
        runLoop(report, daemon->port(), options.seed, options.seconds / 2,
                hotBodies, maxPoints, true);

    // In-process layer probes on the hot keys, with the loop idle.
    const std::string dir = daemon->store().string();
    const store::ResultStore hotStore(dir);
    const store::ResultStore scratchStore((scratch / "publish").string());
    double readMs = 0.0, publishMs = 0.0, bytes = 0.0, parseMs = 0.0;
    for (const std::string& body : hotBodies) {
        parseMs += medianMillis(20, [&] { parseServeRequest(body, dir); });
        const std::uint64_t key = parseServeRequest(body, dir).key.full;
        std::optional<store::StoreEntry> entry;
        readMs += medianMillis(20, [&] { entry = hotStore.load(key); });
        if (!entry) {
            report.fail("hot key missing from the store");
            continue;
        }
        publishMs += medianMillis(10, [&] { scratchStore.save(*entry); });
        bytes += static_cast<double>(fs::file_size(
            fs::path(dir) / store::ResultStore::entryFileName(key)));
    }
    const ServeRequest request = parseServeRequest(hotBodies.front(), dir);
    const CharacterizeResult hit =
        characterizeInterdependent(request.fixture, request.config);
    if (hit.stats.cacheHits != 1) {
        report.fail("in-process hot key was not a store hit");
    }
    const double renderMs = medianMillis(
        20, [&] { renderServeResponse(request, hit, ServeDisposition{}); });
    std::size_t next = 0;
    const double serviceMs = medianMillis(20, [&] {
        const auto outcome = daemon->service().characterize(
            hotBodies[next++ % hotBodies.size()]);
        if (outcome.status != 200) {
            report.fail("in-process service call failed");
        }
    });
    const ServiceCounters counters = daemon->service().counters();

    const double keys = static_cast<double>(hotBodies.size());
    std::vector<double> cold = loop.merged.coldMillis;
    cold.insert(cold.end(), traced.merged.coldMillis.begin(),
                traced.merged.coldMillis.end());
    SimStats coldStats = loop.merged.coldStats;
    coldStats.merge(traced.merged.coldStats);
    const double coldJobs = static_cast<double>(cold.size());
    report.set("chz.h_calls",
               ratio(static_cast<double>(coldStats.hEvaluations), coldJobs));
    report.set("chz.mpnr_iters_per_point",
               ratio(static_cast<double>(coldStats.mpnrIterations),
                     loop.merged.coldPoints + traced.merged.coldPoints));
    setCounterMetrics(report, coldStats);
    report.set("store.read_ms", readMs / keys);
    report.set("store.publish_ms", publishMs / keys);
    report.set("store.entry_bytes", bytes / keys);
    report.set("serve.parse_ms", parseMs / keys);
    report.set("serve.render_ms", renderMs);
    report.set("serve.service_ms", serviceMs);
    report.set("serve.http_ms", median(traced.merged.warmOutsideMillis));
    report.set("serve.queue_ms_p99",
               quantile(traced.merged.warmQueueMillis, 0.99));
    report.set("serve.compute_ms_p99",
               quantile(traced.merged.warmComputeMillis, 0.99));
    report.set("serve.cold_p50_ms", median(cold));
    report.set("serve.warm_p99_ms", quantile(loop.merged.warmMillis, 0.99));
    report.set("serve.coalesced", static_cast<double>(counters.coalesced));
    report.set("serve.rejected", static_cast<double>(counters.rejected));
    report.set("trace_overhead_frac",
               ratio(median(traced.merged.warmMillis),
                     median(loop.merged.warmMillis)) -
                   1.0);
    daemon.reset();
    fs::remove_all(scratch);
}

}  // namespace perfbench
