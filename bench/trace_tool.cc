/**
 * @file
 * Command-line front end for `.wtrace` files: `trace_tool <command>`
 * with record, stats, dump, replay, mrc, serve or attach. `--help`
 * prints each command's arguments and flags from commandTable(). Every
 * command also takes `--io` and `--verify-crc`, which set the
 * process-wide ReaderOptions before any trace is opened (see
 * tracefile/trace_source.hh for the trust ladder).
 *
 * `record` executes one roster workload and captures its op stream;
 * `stats` prints the header/footer accounting, chunk layout,
 * compression ratio and the MixCounter op-mix table from a replay;
 * `dump` prints the first N decoded ops; `replay` fans the trace
 * across machine configs in parallel and prints one report row each;
 * `mrc` computes the miss-ratio curve over a capacity ladder through
 * the replay layer's MrcMode plumbing — the single-pass
 * stack-distance profile by default, the per-rung set-associative
 * oracle, or both (verify) with the divergence per rung — as a table
 * or machine-readable JSON.
 *
 * `serve` and `attach` are the cross-process pair (the shm ring
 * transport, docs/SHM_TRANSPORT.md): `serve` executes workloads and
 * streams their encoded ops into per-workload shared-memory rings
 * (NAME for one workload, NAME.0..NAME.N-1 for N), and `attach` —
 * run in another shell, in any order relative to serve — drains each
 * ring and analyzes the stream with the same replay machinery the
 * file commands use: the machine-config table by default, the
 * stack-distance MRC under `--mrc`.
 */

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "base/flags.hh"
#include "base/strings.hh"
#include "base/table.hh"
#include "core/profiler.hh"
#include "scenario/scenario.hh"
#include "sim/stack_distance.hh"
#include "trace/mix_counter.hh"
#include "tracefile/capture.hh"
#include "tracefile/replay.hh"
#include "tracefile/shm_ring.hh"
#include "tracefile/trace_reader.hh"
#include "tracefile/trace_source.hh"
#include "workloads/registry.hh"

using namespace wcrt;

namespace {

/** Every command's flag targets; a command's table names its subset. */
struct Options
{
    double scale = 1.0;
    uint64_t limit = 32;
    std::vector<MachineConfig> machines{xeonE5645(), atomD510()};
    unsigned jobs = 0;
    SweepKind kind = SweepKind::Instruction;
    MrcMode mode = MrcMode::StackDistance;
    std::vector<uint32_t> sizes = paperSweepSizesKb();
    uint32_t assoc = 8;
    uint32_t lineBytes = 64;
    bool json = false;
    std::string ring;
    uint64_t ringKb = 1024;
    ShmPolicy policy = ShmPolicy::Block;
    uint64_t timeoutMs = 10000;
    uint64_t waitMs = 120000;
    uint64_t heartbeatMs = ShmRing::defaultHeartbeatTimeoutMs;
    size_t producers = 1;
    bool mrc = false;
    ReaderOptions reader = defaultReaderOptions();
};

/** --machine: comma-separated names parseMachine() accepts. */
bool
parseMachineList(const std::string &list, std::vector<MachineConfig> &out)
{
    out.clear();
    for (const std::string &tok : split(list, ',')) {
        out.emplace_back();
        if (!parseMachine(tok, out.back()))
            return false;
    }
    return true;
}

/** --sizes: capacities in KB; an empty entry ("16,,64") is rejected. */
bool
parseSizes(const std::string &list, std::vector<uint32_t> &out)
{
    out.clear();
    for (const std::string &tok : split(list, ',')) {
        std::optional<uint64_t> kb = toCount(tok, 1, kMaxSizeKb);
        if (!kb)
            return false;
        out.push_back(static_cast<uint32_t>(*kb));
    }
    return true;
}

/** The commands and their flag tables, bound to `o`. */
std::vector<FlagCommand>
commandTable(Options &o)
{
    constexpr uint64_t kMaxMs = 86400000;
    const std::string kb = rangeText(1, kMaxSizeKb);
    Flag scale = realFlag("scale", o.scale, kMinScale, kMaxScale,
                          "dataset scale");
    Flag machine = choiceFlag("machine", o.machines, parseMachineList,
                              "LIST", "xeon, atom, sim<KB> with KB " + kb,
                              "comma-separated machines (default xeon,atom)");
    Flag jobs = countFlag("jobs", o.jobs, 0, kMaxJobs, "worker cap, 0 = all");
    Flag kind = choiceFlag("kind", o.kind, parseSweepKind, "K",
                           "instr, data or unified", "stream to profile");
    Flag sizes = choiceFlag("sizes", o.sizes, parseSizes, "CSV", "each " + kb,
                            "capacities in KB (default: the paper's ladder)");
    Flag line = choiceFlag("line", o.lineBytes, parseLineBytes, "N",
                           "a power of two in " + rangeText(1, kMaxLineBytes),
                           "line bytes");
    Flag ring = textFlag("ring", o.ring, "NAME",
                         "shm ring; N rings are NAME.0 .. NAME.N-1");
    Flag timeout = countFlag("timeout-ms", o.timeoutMs, 1, kMaxMs,
                             "serve: drain timeout; attach: ring wait");
    // Every command takes the reader-policy flags.
    Flag io = choiceFlag("io", o.reader.io, parseTraceIo, "M",
                         "auto, stream or mmap", "trace transport");
    Flag crc = choiceFlag("verify-crc", o.reader.crc, parseCrcMode, "M",
                          "always, once or never", "chunk CRC policy");
    return {
        {"record", "<workload> <out.wtrace>", 2, 2, {scale, io, crc}},
        {"stats", "<file.wtrace>", 1, 1, {jobs, io, crc}},
        {"dump", "<file.wtrace>", 1, 1,
         {countFlag("limit", o.limit, 0, UINT64_MAX, "ops to print"), io,
          crc}},
        {"replay", "<file.wtrace>", 1, 1, {machine, jobs, io, crc}},
        {"mrc", "<file.wtrace>", 1, 1,
         {kind,
          choiceFlag("mode", o.mode, parseMrcMode, "M",
                     "stack, oracle or verify", "miss-ratio-curve path"),
          sizes, countFlag("assoc", o.assoc, 1, kMaxAssoc, "oracle ways"),
          line, jobs, switchFlag("json", o.json, "print the curve as JSON"),
          io, crc}},
        {"serve", "<workload>[,<workload>...]", 1, 1,
         {ring, scale,
          countFlag("ring-kb", o.ringKb, 1, 1 << 20,
                    "ring capacity per producer, rounded to 2^k"),
          choiceFlag("policy", o.policy, parseShmPolicy, "P",
                     "block or drop", "backpressure: lossless or lossy"),
          timeout,
          countFlag("wait-ms", o.waitMs, 1, kMaxMs,
                    "serve: wait for a first analyzer on a full ring"),
          countFlag("heartbeat-ms", o.heartbeatMs, 1, kMaxMs,
                    "serve: peer-death threshold"),
          io, crc}},
        {"attach", "", 0, 0,
         {ring,
          countFlag("producers", o.producers, 1, kMaxJobs, "rings to drain"),
          machine, switchFlag("mrc", o.mrc, "print the miss-ratio curve"),
          kind, sizes, line, jobs, timeout, io, crc}},
    };
}

const char *
layerName(CodeLayer layer)
{
    switch (layer) {
      case CodeLayer::Kernel: return "kernel";
      case CodeLayer::Runtime: return "runtime";
      case CodeLayer::Framework: return "framework";
      case CodeLayer::Library: return "library";
      case CodeLayer::Application: return "application";
    }
    return "?";
}

int
cmdRecord(const std::string &name, const std::string &out,
          const Options &opt)
{
    WorkloadPtr w = findWorkload(name).make(opt.scale);
    CaptureResult res = captureTrace(*w, out, opt.scale);
    std::cout << "recorded " << name << " (scale " << opt.scale << "): "
              << res.ops << " ops, " << res.fileBytes << " bytes -> "
              << out << "\n";
    return 0;
}

int
cmdStats(const std::string &path)
{
    TraceReader reader(path);
    const TraceMeta &meta = reader.meta();

    std::cout << "=== " << path << " ===\n\n";
    std::cout << "workload:       " << meta.workload << " ("
              << toString(meta.stackKind) << ", "
              << toString(meta.category) << ", scale " << meta.scale
              << ")\n";
    std::cout << "ops:            " << reader.opCount() << "\n";
    std::cout << "file size:      " << reader.fileBytes() << " bytes ("
              << reader.chunkCount() << " chunks)\n";
    std::cout << "io:             " << reader.ioName()
              << ", verify-crc "
              << toString(reader.options().crc) << "\n";
    std::cout << "payload:        " << reader.payloadBytes()
              << " bytes, " << formatFixed(reader.bytesPerOp(), 3)
              << " bytes/op\n";
    std::cout << "compression:    "
              << formatFixed(static_cast<double>(sizeof(MicroOp)) /
                                 std::max(reader.bytesPerOp(), 1e-9),
                             1)
              << "x vs in-memory MicroOp (" << sizeof(MicroOp)
              << " bytes)\n";

    std::cout << "\n--- region table ---\n";
    std::map<CodeLayer, std::pair<uint64_t, uint64_t>> by_layer;
    for (const auto &fn : reader.regions()) {
        by_layer[fn.layer].first++;
        by_layer[fn.layer].second += fn.bytes;
    }
    Table rt({"layer", "functions", "code bytes"});
    for (const auto &[layer, stat] : by_layer) {
        rt.cell(layerName(layer)).cell(stat.first).cell(stat.second);
        rt.endRow();
    }
    rt.print(std::cout);
    std::cout << "total static code: " << reader.regionBytes()
              << " bytes across " << reader.regions().size()
              << " functions\n";

    MixCounter mix;
    reader.replayInto(mix);
    std::cout << "\n--- op mix (replayed through MixCounter) ---\n";
    Table mt({"class", "share"});
    auto pct = [](double r) { return formatFixed(r * 100, 2) + "%"; };
    mt.cell("load").cell(pct(mix.loadRatio())); mt.endRow();
    mt.cell("store").cell(pct(mix.storeRatio())); mt.endRow();
    mt.cell("branch").cell(pct(mix.branchRatio())); mt.endRow();
    mt.cell("integer").cell(pct(mix.integerRatio())); mt.endRow();
    mt.cell("fp").cell(pct(mix.fpRatio())); mt.endRow();
    mt.cell("other").cell(pct(mix.otherRatio())); mt.endRow();
    mt.print(std::cout);
    std::cout << "data movement: " << pct(mix.dataMovementRatio())
              << " (with branches: "
              << pct(mix.dataMovementWithBranchRatio()) << ")\n";

    const IoCounters &io = reader.io();
    std::cout << "\n--- captured run accounting ---\n"
              << "disk read/write:    " << io.diskReadBytes << " / "
              << io.diskWriteBytes << " bytes\n"
              << "network:            " << io.networkBytes << " bytes\n";
    return 0;
}

/** Prints the first `limit` ops, then counts the rest. */
class DumpSink : public TraceSink
{
  public:
    explicit DumpSink(uint64_t limit) : limit(limit) {}

    void
    consume(const MicroOp &op) override
    {
        if (seen++ >= limit)
            return;
        std::cout << seen - 1 << ": " << toString(op.kind)
                  << " pc=0x" << std::hex << op.pc << std::dec;
        if (op.memSize > 0 || op.memAddr != 0)
            std::cout << " mem=0x" << std::hex << op.memAddr << std::dec
                      << "+" << static_cast<unsigned>(op.memSize);
        if (op.target != 0)
            std::cout << " target=0x" << std::hex << op.target
                      << std::dec << (op.taken ? " taken" : " not-taken");
        std::cout << "\n";
    }

    uint64_t seen = 0;

  private:
    uint64_t limit;
};

int
cmdDump(const std::string &path, uint64_t limit)
{
    TraceReader reader(path);
    DumpSink sink(limit);
    reader.replayInto(sink);
    if (sink.seen > limit)
        std::cout << "... (" << sink.seen - limit << " more ops)\n";
    return 0;
}

/** Print the per-machine CpuReport table replay and attach share. */
void
printReplayTable(const std::vector<CpuReport> &reports)
{
    Table t({"machine", "IPC", "CPI", "L1I MPKI", "L1D MPKI", "L2 MPKI",
             "branch miss%"});
    for (const auto &r : reports) {
        t.cell(r.machine)
            .cell(r.ipc, 2)
            .cell(r.cpi, 2)
            .cell(r.l1iMpki, 1)
            .cell(r.l1dMpki, 1)
            .cell(r.l2Mpki, 1)
            .cell(r.branchMispredictRatio * 100, 1);
        t.endRow();
    }
    t.print(std::cout);
}

int
cmdReplay(const std::string &path, const Options &opt)
{
    TraceReader probe(path);
    std::cout << "replaying " << probe.meta().workload << " ("
              << probe.opCount() << " ops) on " << opt.machines.size()
              << " configs, " << replayWorkers(opt.jobs) << " workers\n\n";

    auto reports = replayOnConfigs(path, opt.machines, opt.jobs);
    printReplayTable(reports);
    return 0;
}

/** JSON string escape for the few meta fields mrc --json emits. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

/** Full-precision double for JSON (tables round, JSON must not). */
std::string
jsonDouble(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

int
cmdMrc(const std::string &path, const Options &opt)
{
    TraceReader probe(path);
    std::string workload = probe.meta().workload;
    MrcResult r = replaySweepLadder(path, opt.kind, opt.sizes, opt.mode,
                                    opt.jobs, opt.assoc, opt.lineBytes);

    if (opt.json) {
        std::cout << "{\n"
                  << "  \"trace\": \"" << jsonEscape(path) << "\",\n"
                  << "  \"workload\": \"" << jsonEscape(workload)
                  << "\",\n"
                  << "  \"kind\": \"" << toString(opt.kind) << "\",\n"
                  << "  \"mode\": \"" << toString(opt.mode) << "\",\n"
                  << "  \"assoc\": " << opt.assoc << ",\n"
                  << "  \"line_bytes\": " << opt.lineBytes << ",\n";
        auto emit_list = [](const char *name, auto &&fmt, size_t n,
                            bool last = false) {
            std::cout << "  \"" << name << "\": [";
            for (size_t i = 0; i < n; ++i)
                std::cout << (i ? ", " : "") << fmt(i);
            std::cout << "]" << (last ? "\n" : ",\n");
        };
        emit_list("sizes_kb",
                  [&](size_t i) { return std::to_string(opt.sizes[i]); },
                  opt.sizes.size());
        if (opt.mode == MrcMode::Verify) {
            emit_list("miss_ratio",
                      [&](size_t i) { return jsonDouble(r.ratios[i]); },
                      r.ratios.size());
            emit_list("oracle_miss_ratio",
                      [&](size_t i) {
                          return jsonDouble(r.oracleRatios[i]);
                      },
                      r.oracleRatios.size());
            std::cout << "  \"max_divergence\": "
                      << jsonDouble(r.maxDivergence) << "\n";
        } else {
            emit_list("miss_ratio",
                      [&](size_t i) { return jsonDouble(r.ratios[i]); },
                      r.ratios.size(), /*last=*/true);
        }
        std::cout << "}\n";
        return 0;
    }

    std::cout << "miss-ratio curve of " << workload << " ("
              << toString(opt.kind)
              << ", " << toString(opt.mode) << " mode, line " << opt.lineBytes
              << "B"
              << (opt.mode == MrcMode::StackDistance
                      ? std::string(")")
                      : ", oracle " + std::to_string(opt.assoc) + "-way)")
              << "\n\n";
    std::vector<std::string> header{"cache KB", "miss%"};
    if (opt.mode == MrcMode::Verify) {
        header[1] = "stack miss%";
        header.push_back("oracle miss%");
        header.push_back("|gap|%");
    }
    Table t(header);
    for (size_t i = 0; i < opt.sizes.size(); ++i) {
        t.cell(static_cast<uint64_t>(opt.sizes[i]));
        t.cell(r.ratios[i] * 100.0, 3);
        if (opt.mode == MrcMode::Verify) {
            t.cell(r.oracleRatios[i] * 100.0, 3);
            t.cell(std::abs(r.ratios[i] - r.oracleRatios[i]) * 100.0, 3);
        }
        t.endRow();
    }
    t.print(std::cout);
    if (opt.mode == MrcMode::Verify)
        std::cout << "max |stack - oracle| divergence: "
                  << formatFixed(r.maxDivergence * 100, 3) << "%\n";
    return 0;
}

/** Per-producer ring name: NAME for one producer, NAME.i for many. */
std::string
ringNameAt(const std::string &base, size_t i, size_t n)
{
    return n == 1 ? base : base + "." + std::to_string(i);
}

int
cmdServe(const std::string &list, const Options &opt)
{
    std::vector<std::string> workloads = split(list, ',');
    if (opt.ring.empty())
        wcrt_fatal("serve needs --ring=NAME");
    if (!shmAvailable())
        wcrt_fatal("shm rings are not supported on this platform");

    // Create every ring before running anything, so an analyzer that
    // attaches while the first workload is still executing finds all
    // of them. A leftover ring from a crashed serve is replaced.
    size_t n = workloads.size();
    std::vector<ShmRing> rings;
    rings.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        std::string name = ringNameAt(opt.ring, i, n);
        ShmRing::unlink(name);
        rings.push_back(ShmRing::create(name, ShmRing::Role::Producer,
                                        opt.ringKb * 1024, opt.heartbeatMs));
        // Beat from ring creation, not first push: parallelFor can
        // queue a workload behind busy pool workers (and setup alone
        // can outlast the timeout) — an attached analyzer must not
        // read the wait as producer death. And bound how long a full
        // ring may block capture while no analyzer has ever attached.
        rings.back().startHeartbeat();
        rings.back().setNoConsumerTimeout(opt.waitMs);
        std::cout << "serving " << workloads[i] << " on shm ring "
                  << name << " (" << opt.ringKb << " KB, "
                  << toString(opt.policy) << ")\n";
    }
    std::cout << "waiting for an analyzer: trace_tool attach --ring="
              << opt.ring << (n > 1 ? " --producers=" +
                                           std::to_string(n)
                                     : std::string())
              << "\n\n";

    std::vector<ServeResult> results(n);
    std::vector<std::string> errors(n);
    parallelFor(n, [&](size_t i) {
        // Catch per workload: one ring erroring out (e.g. its
        // analyzer never attached within --wait-ms) must not take
        // down the siblings still streaming.
        try {
            const WorkloadEntry &entry = findWorkload(workloads[i]);
            WorkloadPtr w = entry.make(opt.scale);
            results[i] = serveTrace(*w, rings[i], opt.scale, opt.policy);
            rings[i].awaitDrained(opt.timeoutMs);
        } catch (const TraceFormatError &err) {
            errors[i] = err.what();
        }
    });

    int rc = 0;
    for (size_t i = 0; i < n; ++i) {
        if (!errors[i].empty()) {
            std::cerr << "trace_tool: serve " << workloads[i] << ": "
                      << errors[i] << "\n";
            rc = 1;
        } else {
            std::cout << "streamed " << workloads[i] << ": "
                      << results[i].ops << " ops, "
                      << results[i].streamBytes << " bytes";
            if (results[i].droppedChunks)
                std::cout << " (" << results[i].droppedChunks
                          << " chunks / " << results[i].droppedOps
                          << " ops dropped)";
            std::cout << " -> " << ringNameAt(opt.ring, i, n) << "\n";
        }
        ShmRing::unlink(ringNameAt(opt.ring, i, n));
    }
    return rc;
}

int
cmdAttach(const Options &opt)
{
    if (opt.ring.empty())
        wcrt_fatal("attach needs --ring=NAME");
    if (!shmAvailable())
        wcrt_fatal("shm rings are not supported on this platform");

    // Drain every ring first (rings in parallel — each drain is one
    // cheap memcpy loop), then analyze the buffered streams: analysis
    // replays must not stall a producer on a full ring.
    std::vector<std::shared_ptr<const std::vector<uint8_t>>> streams(
        opt.producers);
    std::vector<bool> peer_died(opt.producers);
    parallelFor(opt.producers, [&](size_t i) {
        ShmRing ring =
            ShmRing::open(ringNameAt(opt.ring, i, opt.producers),
                          ShmRing::Role::Consumer, opt.timeoutMs);
        ShmSource drained(ring);
        streams[i] = drained.payload();
        peer_died[i] = drained.peerDied();
    }, opt.jobs);

    int rc = 0;
    for (size_t i = 0; i < opt.producers; ++i) {
        std::string name = ringNameAt(opt.ring, i, opt.producers);
        std::string display = "shm:" + name;
        std::cout << "=== " << display << " ===\n";
        if (peer_died[i])
            std::cout << "warning: producer died mid-stream; analyzing "
                         "the received prefix\n";
        try {
            // The probe validates the whole drained stream (including
            // the truncation a dead producer leaves behind) exactly
            // like the file reader would.
            TraceReader probe(
                std::make_unique<ShmSource>(streams[i]), display);
            std::cout << probe.meta().workload << ": "
                      << probe.opCount() << " ops, "
                      << streams[i]->size() << " bytes via "
                      << probe.ioName() << "\n";

            if (opt.mrc) {
                // replaySweepLadder's StackDistance mode on the
                // drained stream, so the curve is bit-identical to
                // `trace_tool mrc` on the equivalent file.
                TraceReader reader(
                    std::make_unique<ShmSource>(streams[i]), display);
                std::vector<double> ratios = replayStackMrc(
                    reader, opt.kind, opt.sizes, opt.lineBytes);
                Table t({"cache KB", "miss%"});
                for (size_t j = 0; j < opt.sizes.size(); ++j) {
                    t.cell(static_cast<uint64_t>(opt.sizes[j]));
                    t.cell(ratios[j] * 100.0, 3);
                    t.endRow();
                }
                t.print(std::cout);
            } else {
                std::vector<CpuReport> reports(opt.machines.size());
                parallelFor(opt.machines.size(), [&](size_t j) {
                    TraceReader reader(
                        std::make_unique<ShmSource>(streams[i]),
                        display);
                    SimCpu cpu(opt.machines[j]);
                    reader.replayInto(cpu);
                    reports[j] = cpu.report();
                }, opt.jobs);
                printReplayTable(reports);
            }
        } catch (const TraceFormatError &err) {
            std::cerr << "trace_tool: " << err.what() << "\n";
            rc = 1;
        }
        ShmRing::unlink(name);
        if (i + 1 < opt.producers)
            std::cout << "\n";
    }
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    const std::vector<FlagCommand> commands = commandTable(opt);
    try {
        FlagArgs args = parseFlags(commands, {argv + 1, argv + argc});
        if (args.help) {
            std::cout << flagHelp("trace_tool", commands);
            return 0;
        }
        // The reader-policy flags set the process-wide defaults that
        // TraceReader and the replay runners pick up; --jobs also caps
        // each replay's chunk decode.
        opt.reader.jobs = opt.jobs;
        setDefaultReaderOptions(opt.reader);
        const std::string &cmd = args.command->name;
        const std::vector<std::string> &pos = args.positional;
        if (cmd == "record")
            return cmdRecord(pos[0], pos[1], opt);
        if (cmd == "stats")
            return cmdStats(pos[0]);
        if (cmd == "dump")
            return cmdDump(pos[0], opt.limit);
        if (cmd == "replay")
            return cmdReplay(pos[0], opt);
        if (cmd == "mrc")
            return cmdMrc(pos[0], opt);
        if (cmd == "serve")
            return cmdServe(pos[0], opt);
        return cmdAttach(opt);
    } catch (const FlagError &err) {
        std::cerr << "trace_tool: " << err.what() << "\n";
        return err.status;
    } catch (const TraceFormatError &err) {
        std::cerr << "trace_tool: " << err.what() << "\n";
        return 1;
    }
}
