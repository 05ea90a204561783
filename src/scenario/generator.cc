#include "scenario/generator.hh"

#include <cmath>
#include <cstdio>
#include <optional>
#include <vector>

#include "base/flags.hh"
#include "base/strings.hh"

namespace wcrt {

uint64_t
mixSeed(uint64_t a, uint64_t b)
{
    uint64_t x = a + 0x9e3779b97f4a7c15ull * (b + 1);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

const char *
toString(GenKind k)
{
    switch (k) {
      case GenKind::Zipf: return "zipf";
      case GenKind::Uniform: return "uniform";
      case GenKind::Gauss: return "gauss";
      case GenKind::Bytes: return "bytes";
      case GenKind::Words: return "words";
    }
    return "?";
}

namespace {

/** Compact double rendering for canonical specs ("0.99", "1000"). */
std::string
renderNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

} // namespace

bool
ValueGen::parse(const std::string &spec, ValueGen &out,
                std::string &err)
{
    size_t open = spec.find('(');
    if (open == std::string::npos || spec.back() != ')') {
        err = "malformed generator spec '" + spec +
              "' (expected kind(args))";
        return false;
    }
    std::string name = spec.substr(0, open);
    size_t arity;
    if (name == "zipf") {
        out.k = GenKind::Zipf;
        arity = 2;
    } else if (name == "uniform") {
        out.k = GenKind::Uniform;
        arity = 2;
    } else if (name == "gauss") {
        out.k = GenKind::Gauss;
        arity = 2;
    } else if (name == "bytes") {
        out.k = GenKind::Bytes;
        arity = 1;
    } else if (name == "words") {
        out.k = GenKind::Words;
        arity = 2;
    } else {
        err = "unknown generator kind '" + name +
              "' (zipf, uniform, gauss, bytes or words)";
        return false;
    }

    std::vector<std::string> args;
    for (const std::string &tok :
         split(spec.substr(open + 1, spec.size() - open - 2), ','))
        args.push_back(trim(tok));
    if (args.size() != arity) {
        err = name + "() takes " + std::to_string(arity) +
              " arguments, got " + std::to_string(args.size());
        return false;
    }

    // Every argument goes through the shared converters with a range,
    // so trailing junk is an error and no size reaches an allocation
    // unchecked.
    auto bad = [&](size_t i, const char *what, const std::string &range) {
        err = "bad " + name + " " + what + " '" + args[i] + "' in '" +
              spec + "' (expected " + range + ")";
        return false;
    };
    auto count = [&](size_t i, const char *what, uint64_t max,
                     uint64_t &dst) {
        return assignIf(toCount(args[i], 1, max), dst) ||
               bad(i, what, rangeText(1, max));
    };
    auto real = [&](size_t i, const char *what, double min, double max,
                    double &dst) {
        // toReal takes no sign; a leading '-' negates an unsigned value.
        bool neg = args[i].starts_with('-');
        std::optional<double> v = toReal(
            neg ? args[i].substr(1) : args[i], 0, neg ? -min : max);
        if (v && neg)
            v = -*v;
        return (v && *v >= min && assignIf(v, dst)) ||
               bad(i, what, rangeText(min, max));
    };

    switch (out.k) {
      case GenKind::Zipf:
        if (!count(0, "rank count", kMaxGenRanks, out.n) ||
            !real(1, "exponent", 0, kMaxZipfExponent, out.b))
            return false;
        out.zipf = std::make_shared<ZipfSampler>(
            static_cast<size_t>(out.n), out.b);
        break;
      case GenKind::Uniform:
        if (!real(0, "low", -kMaxGenMagnitude, kMaxGenMagnitude, out.a) ||
            !real(1, "high", -kMaxGenMagnitude, kMaxGenMagnitude, out.b))
            return false;
        if (out.b < out.a) {
            err = "uniform needs hi >= lo";
            return false;
        }
        break;
      case GenKind::Gauss:
        if (!real(0, "mean", -kMaxGenMagnitude, kMaxGenMagnitude, out.a) ||
            !real(1, "deviation", 0, kMaxGenMagnitude, out.b))
            return false;
        break;
      case GenKind::Bytes:
        if (!count(0, "length", kMaxGenTextLength, out.n))
            return false;
        break;
      case GenKind::Words:
        if (!count(0, "count", kMaxGenTextLength, out.n) ||
            !count(1, "vocabulary", kMaxGenRanks, out.m))
            return false;
        out.zipf = std::make_shared<ZipfSampler>(
            static_cast<size_t>(out.m), 0.9);
        break;
    }
    return true;
}

std::string
ValueGen::spec() const
{
    std::string out = toString(k);
    out += "(";
    switch (k) {
      case GenKind::Zipf:
        out += std::to_string(n) + ", " + renderNumber(b);
        break;
      case GenKind::Uniform:
      case GenKind::Gauss:
        out += renderNumber(a) + ", " + renderNumber(b);
        break;
      case GenKind::Bytes:
        out += std::to_string(n);
        break;
      case GenKind::Words:
        out += std::to_string(n) + ", " + std::to_string(m);
        break;
    }
    out += ")";
    return out;
}

Rng
ValueGen::rngAt(const GenCtx &ctx) const
{
    // Fold the generator's identity in as well, so two generators
    // evaluated at the same (seed, actor, op) do not mirror each
    // other's draws.
    uint64_t id = mixSeed(static_cast<uint64_t>(k), n);
    return Rng(mixSeed(mixSeed(ctx.seed, ctx.actor),
                       mixSeed(ctx.op, id)));
}

uint64_t
ValueGen::drawIndex(const GenCtx &ctx) const
{
    Rng rng = rngAt(ctx);
    switch (k) {
      case GenKind::Zipf:
        return zipf->sample(rng);
      case GenKind::Uniform:
        return static_cast<uint64_t>(
            rng.nextRange(static_cast<int64_t>(a),
                          static_cast<int64_t>(b)));
      default:
        return static_cast<uint64_t>(drawScalar(ctx));
    }
}

double
ValueGen::drawScalar(const GenCtx &ctx) const
{
    Rng rng = rngAt(ctx);
    switch (k) {
      case GenKind::Zipf:
        return static_cast<double>(zipf->sample(rng));
      case GenKind::Uniform:
        return a + rng.nextDouble() * (b - a);
      case GenKind::Gauss:
        return rng.nextGaussian(a, b);
      case GenKind::Bytes:
        return static_cast<double>(n);
      case GenKind::Words:
        return static_cast<double>(n);
    }
    return 0.0;
}

std::string
ValueGen::drawText(const GenCtx &ctx) const
{
    Rng rng = rngAt(ctx);
    switch (k) {
      case GenKind::Bytes: {
        std::string out;
        out.reserve(n);
        for (uint64_t i = 0; i < n; ++i)
            out.push_back(static_cast<char>(
                ' ' + rng.nextBelow('~' - ' ' + 1)));
        return out;
      }
      case GenKind::Words: {
        std::string out;
        for (uint64_t i = 0; i < n; ++i) {
            if (i > 0)
                out += ' ';
            out += 'w';
            out += std::to_string(zipf->sample(rng));
        }
        return out;
      }
      default:
        return std::to_string(drawIndex(ctx));
    }
}

} // namespace wcrt
