#include "common.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "simd/dispatch.hh"

namespace pb
{

namespace
{

const Clock::time_point g_epoch = Clock::now();

std::string
readFirstLine(const std::string &path)
{
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    return line;
}

/** Data/unified cache sizes of cpu0 from sysfs, "L1d=48K L2=2048K". */
std::string
cacheSizes()
{
    std::string out;
    for (int i = 0; i < 8; ++i) {
        const std::string dir =
            "/sys/devices/system/cpu/cpu0/cache/index" +
            std::to_string(i) + "/";
        const std::string level = readFirstLine(dir + "level");
        if (level.empty())
            break;
        const std::string type = readFirstLine(dir + "type");
        if (type == "Instruction")
            continue;
        if (!out.empty())
            out += ' ';
        out += "L" + level + (type == "Data" ? "d" : "") + "=" +
               readFirstLine(dir + "size");
    }
    return out.empty() ? "unknown" : out;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(colon + 2);
        }
    }
    return "unknown";
}

} // namespace

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - g_epoch)
        .count();
}

void
Report::set(const std::string &name, double value,
            const std::string &unit)
{
    m_[name] = {value, unit};
    missing_.erase(name);
}

void
Report::unmeasured(const std::string &name, const std::string &unit,
                   const std::string &why)
{
    if (m_.count(name))
        return;
    m_[name] = {0.0, unit};
    missing_[name] = why;
}

void
Report::checkFailed(const std::string &what)
{
    fail_.push_back(what);
}

void
Report::ops(std::size_t n, std::size_t failed)
{
    attempted_ += n;
    failed_ += failed;
}

std::string
Report::json() const
{
    std::ostringstream o;
    o << "{\"correct\": "
      << (fail_.empty() && failed_ == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_
      << ", \"failed\": " << failed_ << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, v] : m_) {
        o << (first ? "" : ", ") << jsonStr(name)
          << ": {\"value\": " << num(v.value)
          << ", \"unit\": " << jsonStr(v.unit) << "}";
        first = false;
    }
    o << "}}";
    return o.str();
}

Tracer &
Tracer::get()
{
    static Tracer t;
    return t;
}

std::int64_t
Tracer::open(const char *name)
{
    if (!on_)
        return -1;
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, nowNs(), 0, parent, op_});
    const auto idx = static_cast<std::int64_t>(spans_.size() - 1);
    stack_.push_back(idx);
    return idx;
}

void
Tracer::close(std::int64_t idx)
{
    if (idx < 0)
        return;
    spans_[static_cast<std::size_t>(idx)].end_ns = nowNs();
    if (!stack_.empty() && stack_.back() == idx)
        stack_.pop_back();
}

void
Tracer::record(const char *name, std::int64_t start_ns,
               std::int64_t end_ns)
{
    if (on_)
        spans_.push_back({name, start_ns, end_ns,
                          stack_.empty() ? -1 : stack_.back(), op_});
}

std::map<std::string, double>
Tracer::selfMsByLayer() const
{
    // Children of one span run sequentially on the one recording
    // thread, so the covered part is the sum of their durations.
    std::vector<double> child_ns(spans_.size(), 0.0);
    for (const auto &s : spans_) {
        if (s.parent >= 0)
            child_ns[static_cast<std::size_t>(s.parent)] +=
                static_cast<double>(s.end_ns - s.start_ns);
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const auto &s = spans_[i];
        const std::string name(s.name);
        const std::string layer = name.substr(0, name.find('.'));
        out[layer] +=
            (static_cast<double>(s.end_ns - s.start_ns) - child_ns[i]) *
            1e-6;
    }
    return out;
}

void
Tracer::writeSpans(const std::string &path) const
{
    std::ostringstream o;
    o << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const auto &s = spans_[i];
        o << "{\"id\": " << i << ", \"name\": " << jsonStr(s.name)
          << ", \"start_ns\": " << s.start_ns
          << ", \"end_ns\": " << s.end_ns
          << ", \"parent\": " << s.parent << ", \"op\": " << s.op
          << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    o << "]\n";
    writeFile(path, o.str());
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

bool
optimizedBuild()
{
#if defined(__OPTIMIZE__)
    const std::string lib = PERFBENCH_LIB_BUILD_TYPE;
    return lib == "Release" || lib == "RelWithDebInfo" ||
           lib == "MinSizeRel";
#else
    return false;
#endif
}

std::string
hostFactsJson(const Options &opt)
{
    double load[3] = {0, 0, 0};
    if (getloadavg(load, 3) < 0)
        load[0] = load[1] = load[2] = -1;
    std::ostringstream o;
    o << "{\"nproc\": " << opt.nproc
      << ", \"cpu\": " << jsonStr(cpuModel())
      << ", \"simd\": "
      << jsonStr(ar::simd::levelName(ar::simd::activeLevel()))
      << ", \"lib_build_type\": " << jsonStr(PERFBENCH_LIB_BUILD_TYPE)
      << ", \"perfbench_optimized\": "
#if defined(__OPTIMIZE__)
      << "true"
#else
      << "false"
#endif
      << ", \"caches\": " << jsonStr(cacheSizes())
      << ", \"loadavg\": [" << num(load[0]) << ", " << num(load[1])
      << ", " << num(load[2]) << "]}";
    return o.str();
}

std::string
hostFactsLine(const Options &opt)
{
    double load[3] = {0, 0, 0};
    if (getloadavg(load, 3) < 0)
        load[0] = -1;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.2f", load[0]);
    return "host: nproc=" + std::to_string(opt.nproc) + " simd=" +
           ar::simd::levelName(ar::simd::activeLevel()) +
           " build=" + PERFBENCH_LIB_BUILD_TYPE + " caches=[" +
           cacheSizes() + "] loadavg1=" + buf + " cpu=\"" + cpuModel() +
           "\"";
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

std::string
jsonStr(const std::string &s)
{
    std::string o = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            o += '\\';
            o += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            o += buf;
        } else {
            o += c;
        }
    }
    return o + "\"";
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0 ||
           (std::isnan(a) && std::isnan(b));
}

bool
closeRel(double a, double b, double rel)
{
    return std::fabs(a - b) <=
           rel * std::max(std::fabs(a), std::fabs(b));
}

std::uint64_t
SeedRng::next()
{
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
SeedRng::uniform(double lo, double hi)
{
    const double u =
        static_cast<double>(next() >> 11) * 0x1.0p-53;
    return lo + (hi - lo) * u;
}

std::size_t
SeedRng::below(std::size_t n)
{
    return static_cast<std::size_t>(next() % n);
}

} // namespace pb
