/**
 * @file
 * serve-mixed: one op is one request to an in-process serve::Server on
 * 127.0.0.1:0.  A closed loop: each connection sends its next scripted
 * request only after the previous reply, all connections driven from
 * perfbench's main thread with poll().  Thread budget: the main
 * thread, the server's event loop and nproc - 2 request workers.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>

#include "core/framework.hh"
#include "core/spec.hh"
#include "mc/sensitivity.hh"
#include "obs/telemetry.hh"
#include "serve/server.hh"
#include "util/rng.hh"

#include "gen.hh"
#include "workloads.hh"

namespace pb
{

namespace
{

/** A reply slower than this fails the run instead of hanging it. */
constexpr double kReplyTimeoutS = 60.0;

/** One client connection. */
struct Conn
{
    int fd = -1;
    std::string buf;

    Conn() = default;
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;
    ~Conn()
    {
        if (fd >= 0)
            ::close(fd);
    }

    void connectTo(std::uint16_t port)
    {
        fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0)
            throw std::runtime_error("socket() failed");
        sockaddr_in a{};
        a.sin_family = AF_INET;
        a.sin_port = htons(port);
        a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd, reinterpret_cast<sockaddr *>(&a), sizeof a) != 0)
            throw std::runtime_error("connect() failed");
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    }

    void send(const std::string &frame) const
    {
        std::size_t off = 0;
        while (off < frame.size()) {
            const ssize_t n = ::send(fd, frame.data() + off,
                                     frame.size() - off, MSG_NOSIGNAL);
            if (n <= 0)
                throw std::runtime_error("send() failed");
            off += static_cast<std::size_t>(n);
        }
    }

    /** Read what is available; @return a final reply line, if any
     * (PART progress lines are consumed and dropped). */
    bool pump(std::string &reply)
    {
        char chunk[4096];
        for (;;) {
            const auto nl = buf.find('\n');
            if (nl != std::string::npos) {
                std::string line = buf.substr(0, nl);
                buf.erase(0, nl + 1);
                if (line.rfind("PART ", 0) == 0)
                    continue;
                reply = std::move(line);
                return true;
            }
            const ssize_t n = ::recv(fd, chunk, sizeof chunk, MSG_DONTWAIT);
            if (n > 0) {
                buf.append(chunk, static_cast<std::size_t>(n));
                continue;
            }
            if (n == 0)
                throw std::runtime_error("server closed the connection");
            return false;
        }
    }

    /** Blocking request/reply. */
    std::string roundTrip(const std::string &frame)
    {
        send(frame);
        const auto t0 = Clock::now();
        std::string reply;
        while (!pump(reply)) {
            if (secondsSince(t0) > kReplyTimeoutS)
                throw std::runtime_error("no reply to: " +
                                         frame.substr(0, frame.find('\n')));
            pollfd p{fd, POLLIN, 0};
            ::poll(&p, 1, 1000);
        }
        return reply;
    }
};

std::string
frameOf(const ServeReq &q)
{
    return q.line + "\n" + q.body;
}

/** Value of key= in a reply line ("" when absent). */
std::string
field(const std::string &line, const std::string &key)
{
    const std::string k = " " + key + "=";
    const auto at = line.find(k);
    if (at == std::string::npos)
        return "";
    const auto from = at + k.size();
    return line.substr(from, line.find(' ', from) - from);
}

std::string
fmt17(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** A started server plus its connections. */
struct Rig
{
    std::unique_ptr<ar::serve::Server> server;
    std::vector<std::unique_ptr<Conn>> conns;

    ~Rig()
    {
        conns.clear();
        if (server) {
            server->requestStop();
            server->awaitTermination();
        }
    }
};

} // namespace

void
runServeMixed(const Options &opt, Report &rep)
{
    const std::size_t nconn = serveConns(opt.nproc);
    const std::size_t workers = nconn;

    std::vector<double> setup_s, upload_ms, ping_ms;
    ServeInputs in;
    std::unique_ptr<Rig> rig;
    for (int r = 0; r < kSetupReps; ++r) {
        rig.reset(); // stop the previous repetition's server
        // The first repetition starts at program entry, so process
        // start-up and input generation count.
        const auto t0 = r == 0 ? opt.start : Clock::now();
        in = genServe(opt.seed, nconn);
        rig = std::make_unique<Rig>();
        ar::serve::ServerConfig cfg;
        cfg.workers = workers;
        rig->server = std::make_unique<ar::serve::Server>(cfg);
        rig->server->start();
        for (std::size_t c = 0; c < nconn; ++c) {
            rig->conns.push_back(std::make_unique<Conn>());
            rig->conns.back()->connectTo(rig->server->port());
            const auto p0 = Clock::now();
            if (rig->conns.back()->roundTrip("PING\n").rfind("OK", 0) != 0)
                throw std::runtime_error("PING failed");
            ping_ms.push_back(secondsSince(p0) * 1e3);
        }
        for (const auto &m : in.models) {
            Conn &c = *rig->conns[m.owner < 0 ? 0 : m.owner];
            const auto u0 = Clock::now();
            const std::string reply = c.roundTrip(
                "UPLOAD " + m.name + " " + std::to_string(m.text_a.size()) +
                "\n" + m.text_a);
            upload_ms.push_back(secondsSince(u0) * 1e3);
            if (reply.rfind("OK uploaded", 0) != 0)
                throw std::runtime_error("UPLOAD " + m.name + ": " + reply);
        }
        setup_s.push_back(secondsSince(t0));
    }
    rep.set("setup_s", median(setup_s), "s");
    writeFile(opt.out_dir + "/inputs.txt",
              dumpInputs(opt.workload, opt.seed, opt.nproc));

    // Closed loop over every connection from this thread.
    std::vector<bool> state_b(in.models.size(), false);
    std::vector<std::size_t> next(nconn, 0);
    std::vector<std::size_t> model_ops(in.models.size(), 0);
    std::map<std::string, std::vector<double>> verb_ms, kind_ms;
    double queue_max = 0;
    std::vector<std::string> errors;
    auto phase = [&](double seconds, bool traced) {
        Samples smp;
        std::vector<Clock::time_point> sent(nconn);
        std::vector<const ServeReq *> pending(nconn, nullptr);
        std::vector<pollfd> pfd(nconn);
        const auto t0 = Clock::now();
        auto sendNext = [&](std::size_t c) {
            const auto &script = in.scripts[c];
            const ServeReq &q = script[next[c]++ % script.size()];
            pending[c] = &q;
            sent[c] = Clock::now();
            rig->conns[c]->send(frameOf(q));
        };
        for (std::size_t c = 0; c < nconn; ++c)
            sendNext(c);
        std::size_t busy = nconn;
        std::uint64_t op = 0;
        while (busy > 0) {
            if (secondsSince(t0) > seconds + kReplyTimeoutS)
                throw std::runtime_error("requests still pending " +
                                         std::to_string(kReplyTimeoutS) +
                                         " s after the measured phase");
            for (std::size_t c = 0; c < nconn; ++c)
                pfd[c] = {rig->conns[c]->fd,
                          static_cast<short>(pending[c] ? POLLIN : 0), 0};
            ::poll(pfd.data(), pfd.size(), 1000);
            for (std::size_t c = 0; c < nconn; ++c) {
                std::string reply;
                if (!pending[c] || !rig->conns[c]->pump(reply))
                    continue;
                const ServeReq &q = *pending[c];
                const double ms = secondsSince(sent[c]) * 1e3;
                const std::int64_t end = nowNs();
                if (traced) {
                    // The span of a request is its client round trip.
                    Tracer::get().setOp(op++);
                    Tracer::get().record(
                        q.verb == "RUN"     ? "serve.RUN"
                        : q.verb == "RERUN" ? "serve.RERUN"
                        : q.verb == "EDIT"  ? "serve.EDIT"
                        : q.verb == "SENS"  ? "serve.SENS"
                                            : "serve.SWEEP",
                        end - static_cast<std::int64_t>(ms * 1e6), end);
                    if (op % 16 == 0) {
                        const auto snap =
                            ar::obs::MetricsRegistry::global().scrape();
                        const auto g = snap.gauges.find("serve.queue_depth");
                        if (g != snap.gauges.end())
                            queue_max = std::max(queue_max, g->second);
                    }
                }
                double effective = 0;
                verb_ms[q.verb].push_back(ms);
                kind_ms[q.kind].push_back(ms);
                if (q.model >= 0)
                    ++model_ops[q.model];
                if (reply.rfind("OK ", 0) != 0) {
                    ++smp.failed;
                    if (errors.size() < 8)
                        errors.push_back(q.line + " -> " + reply);
                } else {
                    if (q.verb == "EDIT")
                        state_b[q.model] = q.to_b;
                    effective = std::strtod(
                        field(reply, "effective").c_str(), nullptr);
                }
                smp.add(ms, secondsSince(t0), effective);
                pending[c] = nullptr;
                if (secondsSince(t0) < seconds)
                    sendNext(c);
                else
                    --busy;
            }
        }
        smp.elapsed_s = secondsSince(t0);
        rep.ops(smp.ms.size(), smp.failed);
        return smp;
    };

    const Phases ph = phasesFor(opt);
    const Samples untraced = phase(ph.untraced_s, false);
    reportLatency(rep, untraced);
    {
        std::string table = "# kind requests p10_ms p50_ms p90_ms\n";
        for (const auto &[verb, ms] : kind_ms)
            table += verb + " " + std::to_string(ms.size()) + " " +
                     num(quantile(ms, 0.1)) + " " + num(median(ms)) + " " +
                     num(quantile(ms, 0.9)) + "\n";
        writeFile(opt.out_dir + "/ms_by_verb.txt", table);
    }

    if (opt.trace) {
        setTracing(true);
        verb_ms.clear();
        const Samples traced = phase(ph.traced_s, true);
        const auto snap = ar::obs::MetricsRegistry::global().scrape();
        rep.set("obs.trace_overhead",
                median(traced.ms) / median(untraced.ms), "ratio");
        for (const auto &[verb, ms] : verb_ms) {
            std::string name = "serve." + verb + "_ms_p50";
            for (auto &ch : name)
                ch = static_cast<char>(std::tolower(ch));
            rep.set(name, median(ms), "ms");
        }
        rep.set("serve.upload_ms_p50", median(upload_ms), "ms");
        rep.set("serve.ping_ms_p50", median(ping_ms), "ms");
        rep.set("serve.queue_depth_max", queue_max, "count");
        auto counter = [&](const char *name) {
            const auto it = snap.counters.find(name);
            return it == snap.counters.end()
                       ? 0.0
                       : static_cast<double>(it->second);
        };
        const double reqs = std::max(1.0, counter("serve.requests"));
        rep.set("serve.overload_share",
                counter("serve.rejected_overload") / reqs, "share");
        rep.set("serve.degraded_share", counter("serve.degraded") / reqs,
                "share");
        const double hits = counter("framework.patch.hits");
        const double misses = counter("framework.patch.misses");
        rep.set("framework.patch_hit_share",
                hits + misses > 0 ? hits / (hits + misses) : 0, "share");
        reportPoolTaskUs(rep, snap);

        // In-process layer probes on the served models.
        std::vector<double> parse_us, compile_us, edit_us, inproc_ms,
            sobol_ns;
        std::size_t patched = 0, touched = 0;
        for (const auto &m : in.models) {
            auto t0 = Clock::now();
            ar::core::AnalysisSpec spec;
            {
                ScopedSpan s("core.parseSpec");
                spec = ar::core::parseSpec(m.text_a);
            }
            parse_us.push_back(secondsSince(t0) * 1e6);
            ar::core::Framework fw;
            t0 = Clock::now();
            {
                ScopedSpan s("symbolic.program");
                fw.setSystem(spec.system);
                fw.compiled(spec.output);
                fw.program(spec.outputs);
            }
            compile_us.push_back(secondsSince(t0) * 1e6);
            if (m.owner >= 0) {
                for (int e = 0; e < 10; ++e) {
                    t0 = Clock::now();
                    ar::core::EditOutcome out;
                    {
                        ScopedSpan s("symbolic.updateEquation");
                        out = fw.updateEquation(e % 2 ? m.patch_a
                                                      : m.patch_b);
                    }
                    edit_us.push_back(secondsSince(t0) * 1e6);
                    patched += out.patched;
                    touched += out.patched + out.recompiled;
                }
            } else {
                ar::mc::SensitivityConfig sc;
                sc.threads = 1;
                ar::util::Rng rng(spec.seed);
                t0 = Clock::now();
                {
                    ScopedSpan s("mc.sobolIndices");
                    ar::mc::sobolIndices(fw.compiled(spec.output),
                                         spec.bindings, sc, rng);
                }
                sobol_ns.push_back(
                    secondsSince(t0) * 1e9 /
                    static_cast<double>(sc.trials *
                                        (spec.bindings.uncertain.size() + 2)));
                spec.threads = 1;
                spec.stream = true;
                for (int k = 0; k < 3; ++k) {
                    t0 = Clock::now();
                    ScopedSpan s("core.runSpec");
                    ar::core::runSpec(spec);
                    inproc_ms.push_back(secondsSince(t0) * 1e3);
                }
            }
        }
        rep.set("core.parse_us", median(parse_us), "us");
        rep.set("symbolic.compile_us", median(compile_us), "us");
        rep.set("symbolic.edit_us", median(edit_us), "us");
        rep.set("symbolic.edit_patched_share",
                touched ? static_cast<double>(patched) / touched : 0,
                "share");
        rep.set("mc.sobol_ns_per_eval", median(sobol_ns), "ns/eval");
        const double run_p50 = median(verb_ms["RUN"]);
        rep.set("serve.overhead_share",
                run_p50 > 0 ? 1.0 - median(inproc_ms) / run_p50 : 0,
                "share");
        setTracing(false);
    }

    for (const auto &e : errors)
        rep.checkFailed("request failed: " + e);

    // ---- Correctness checks (outside every timed phase). ----
    Conn &c0 = *rig->conns[0];
    auto failModel = [&](std::size_t m, const std::string &why) {
        rep.checkFailed(in.models[m].name + ": " + why);
        rep.addFailed(model_ops[m]);
        model_ops[m] = 0;
    };
    for (std::size_t m = 0; m < in.models.size(); ++m) {
        const auto &mod = in.models[m];
        if (mod.owner >= 0)
            continue;
        // Serve RUN numbers equal an in-process runSpec (serve RUN
        // streams at threads = 1).
        for (const char *extra : {"", " ci_target=0.6"}) {
            const std::string seed = std::to_string(1000 + m);
            const std::string reply = c0.roundTrip(
                "RUN " + mod.name + " trials=10000 seed=" + seed + extra +
                "\n");
            auto spec = ar::core::parseSpec(mod.text_a);
            spec.trials = 10000;
            spec.seed = std::stoull(seed);
            spec.threads = 1;
            spec.stream = true;
            spec.ci_target = *extra ? 0.6 : 0.0;
            const auto res = ar::core::runSpec(spec);
            if (field(reply, "mean") != fmt17(res.summary.mean) ||
                field(reply, "stddev") != fmt17(res.summary.stddev) ||
                field(reply, "risk") != fmt17(res.risk) ||
                field(reply, "effective") !=
                    std::to_string(res.faults.effective_trials))
                failModel(m, std::string("RUN") + extra +
                                 " differs from runSpec: " + reply);
        }
    }
    for (std::size_t m = 0; m < in.models.size(); ++m) {
        const auto &mod = in.models[m];
        if (mod.owner < 0)
            continue;
        // RERUN after EDIT equals a fresh UPLOAD + RUN of the edit.
        Conn &own = *rig->conns[static_cast<std::size_t>(mod.owner)];
        const bool to_b = !state_b[m];
        const std::string edit = to_b ? mod.patch_b : mod.patch_a;
        const std::string text = to_b ? mod.text_b : mod.text_a;
        const std::string er = own.roundTrip(
            "EDIT " + mod.name + " " + std::to_string(edit.size()) + "\n" +
            edit);
        state_b[m] = to_b;
        const std::string args = " trials=10000 seed=77\n";
        const std::string rerun = own.roundTrip("RERUN " + mod.name + args);
        const std::string fresh = mod.name + "-fresh";
        const std::string up = own.roundTrip(
            "UPLOAD " + fresh + " " + std::to_string(text.size()) + "\n" +
            text);
        const std::string run = own.roundTrip("RUN " + fresh + args);
        bool same = er.rfind("OK edit", 0) == 0 &&
                    up.rfind("OK uploaded", 0) == 0 &&
                    rerun.rfind("OK rerun", 0) == 0;
        for (const char *k : {"trials", "effective", "faults", "mean",
                              "stddev", "reference", "risk"})
            same = same && field(rerun, k) == field(run, k);
        if (!same)
            failModel(m, "RERUN after EDIT differs from UPLOAD+RUN: " +
                             rerun + " vs " + run);
    }
    for (const char *kind : {"truncnormal", "normbinomial", "lognormal",
                             "binomial", "categorical"}) {
        rep.unmeasured(std::string("dist.quantile_ns_per_draw.") + kind,
                       "ns/draw",
                       "measured on risk-analysis; serve-mixed times "
                       "whole requests");
    }
}

} // namespace pb
