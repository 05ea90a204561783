/**
 * @file
 * Command-line front end for `.scn` scenario files, with the commands
 * validate, expand and run (`--help` lists their flags).
 *
 * `validate` parses, resolves and expands every named file, printing
 * every problem found (the parser accumulates issues instead of
 * stopping at the first) — CI runs it over every checked-in .scn
 * file; `expand`
 * prints the ordered cell list a scenario's matrix produces; `run`
 * executes cells through the kind's engine (sweep ladders, traffic
 * phases, machine replays), printing a table per cell and optionally
 * a machine-readable JSON report with full-precision curves.
 *
 * Exit status: 0 on success, 1 when validate finds issues, a run
 * fails or a flag value is bad, 2 on usage errors.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "base/flags.hh"
#include "base/table.hh"
#include "scenario/runner.hh"
#include "scenario/scenario.hh"
#include "tracefile/trace_source.hh"

using namespace wcrt;

namespace {

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

std::string
jsonDouble(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

// ---------------------------------------------------------------- validate

int
cmdValidate(const std::vector<std::string> &files, double base_scale)
{
    int bad = 0;
    for (const std::string &file : files) {
        ScenarioParse parse = loadScenario(file);
        std::vector<ScenarioCell> cells;
        if (parse.ok())
            cells = expandScenario(parse.spec, base_scale, parse.issues);
        if (parse.ok() && cells.empty())
            parse.issues.push_back(
                {0, "matrix expands to no cells"});
        if (!parse.ok()) {
            std::cout << parse.formatIssues();
            ++bad;
            continue;
        }
        std::cout << file << ": OK (" << toString(parse.spec.kind)
                  << " '" << parse.spec.name << "', " << cells.size()
                  << (cells.size() == 1 ? " cell)" : " cells)")
                  << "\n";
    }
    return bad ? 1 : 0;
}

// ------------------------------------------------------------------ expand

int
cmdExpand(const std::string &file, double base_scale)
{
    ScenarioParse parse = loadScenario(file);
    std::vector<ScenarioCell> cells;
    if (parse.ok())
        cells = expandScenario(parse.spec, base_scale, parse.issues);
    if (!parse.ok()) {
        std::cerr << parse.formatIssues();
        return 1;
    }
    std::cout << toString(parse.spec.kind) << " scenario '"
              << parse.spec.name << "': " << cells.size()
              << (cells.size() == 1 ? " cell\n\n" : " cells\n\n");
    Table t({"cell", "label", "scale", "workloads"});
    for (const auto &cell : cells) {
        t.cell(static_cast<uint64_t>(cell.index))
            .cell(cell.label)
            .cell(cell.scale, 4)
            .cell(cell.group.entries.empty()
                      ? std::string("-")
                      : std::to_string(cell.group.entries.size()));
        t.endRow();
    }
    t.print(std::cout);
    return cells.empty() ? 1 : 0;
}

// --------------------------------------------------------------------- run

/** JSON fragments for each executed cell, joined by emitJson(). */
std::vector<std::string> g_cells_json;

void
jsonSweepCell(const CellResult &r, const ScenarioSpec &spec)
{
    std::ostringstream os;
    os << "    {\n      \"index\": " << r.cell.index << ",\n"
       << "      \"label\": \"" << jsonEscape(r.cell.label)
       << "\",\n"
       << "      \"scale\": " << jsonDouble(r.cell.scale) << ",\n"
       << "      \"group\": \"" << jsonEscape(r.cell.group.name)
       << "\",\n"
       << "      \"mode\": \"" << toString(r.cell.mode) << "\",\n"
       << "      \"sizes_kb\": [";
    for (size_t i = 0; i < spec.sizesKb.size(); ++i)
        os << (i ? ", " : "") << spec.sizesKb[i];
    os << "],\n      \"miss_ratio\": [";
    for (size_t i = 0; i < r.sweep.curve.size(); ++i)
        os << (i ? ", " : "") << jsonDouble(r.sweep.curve[i]);
    os << "],\n      \"max_divergence\": "
       << jsonDouble(r.sweep.maxDivergence) << "\n    }";
    g_cells_json.push_back(os.str());
}

void
jsonTrafficCell(const CellResult &r)
{
    std::ostringstream os;
    os << "    {\n      \"index\": " << r.cell.index << ",\n"
       << "      \"label\": \"" << jsonEscape(r.cell.label)
       << "\",\n"
       << "      \"scale\": " << jsonDouble(r.cell.scale) << ",\n"
       << "      \"target\": \""
       << jsonEscape(r.traffic.result.target) << "\",\n"
       << "      \"capacity_hz\": "
       << jsonDouble(r.traffic.capacityHz) << ",\n"
       << "      \"total_requests\": "
       << r.traffic.result.totalRequests << ",\n"
       << "      \"phases\": [";
    const auto &phases = r.traffic.result.phases;
    for (size_t i = 0; i < phases.size(); ++i) {
        const PhaseStats &ps = phases[i];
        os << (i ? "," : "") << "\n        {\"name\": \""
           << jsonEscape(ps.name) << "\", \"arrival\": \""
           << toString(ps.arrival) << "\", \"requests\": "
           << ps.requests << ", \"offered_hz\": "
           << jsonDouble(ps.offeredRateHz) << ", \"achieved_hz\": "
           << jsonDouble(ps.achievedRateHz()) << ", \"p50_ns\": "
           << static_cast<uint64_t>(ps.latency.quantile(0.50))
           << ", \"p99_ns\": "
           << static_cast<uint64_t>(ps.latency.quantile(0.99))
           << "}";
    }
    os << "\n      ]\n    }";
    g_cells_json.push_back(os.str());
}

void
jsonReplayCell(const CellResult &r)
{
    std::ostringstream os;
    os << "    {\n      \"index\": " << r.cell.index << ",\n"
       << "      \"label\": \"" << jsonEscape(r.cell.label)
       << "\",\n"
       << "      \"scale\": " << jsonDouble(r.cell.scale) << ",\n"
       << "      \"machine\": \"" << jsonEscape(r.cell.machineName)
       << "\",\n"
       << "      \"workloads\": [";
    for (size_t i = 0; i < r.replay.reports.size(); ++i) {
        const CpuReport &rep = r.replay.reports[i];
        os << (i ? "," : "") << "\n        {\"name\": \""
           << jsonEscape(r.replay.names[i]) << "\", \"ipc\": "
           << jsonDouble(rep.ipc) << ", \"l1i_mpki\": "
           << jsonDouble(rep.l1iMpki) << ", \"l1d_mpki\": "
           << jsonDouble(rep.l1dMpki) << ", \"l2_mpki\": "
           << jsonDouble(rep.l2Mpki) << ", \"l3_mpki\": "
           << jsonDouble(rep.l3Mpki) << "}";
    }
    os << "\n      ]\n    }";
    g_cells_json.push_back(os.str());
}

void
emitJson(const std::string &path, const ScenarioSpec &spec)
{
    std::ofstream out(path);
    if (!out)
        wcrt_fatal("cannot write ", path);
    out << "{\n  \"scenario\": \"" << jsonEscape(spec.name)
        << "\",\n  \"kind\": \"" << toString(spec.kind)
        << "\",\n  \"source\": \"" << jsonEscape(spec.source)
        << "\",\n  \"seed\": " << spec.seed << ",\n  \"cells\": [\n";
    for (size_t i = 0; i < g_cells_json.size(); ++i)
        out << g_cells_json[i]
            << (i + 1 < g_cells_json.size() ? "," : "") << "\n";
    out << "  ]\n}\n";
}

void
printSweepCell(const CellResult &r, const ScenarioSpec &spec)
{
    Table t({"cache KB", "miss%"});
    for (size_t i = 0; i < r.sweep.curve.size(); ++i) {
        t.cell(static_cast<uint64_t>(spec.sizesKb[i]))
            .cell(r.sweep.curve[i] * 100.0, 3);
        t.endRow();
    }
    t.print(std::cout);
    if (r.cell.mode == MrcMode::Verify)
        std::cout << "max stack/oracle divergence: "
                  << r.sweep.maxDivergence << "\n";
}

void
printTrafficCell(const CellResult &r)
{
    if (r.traffic.capacityHz > 0.0)
        std::cout << "probed capacity: " << r.traffic.capacityHz
                  << " req/s per actor\n";
    Table t({"phase", "arrival", "offered/s", "achieved/s", "p50ns",
             "p99ns", "requests"});
    for (const PhaseStats &ps : r.traffic.result.phases) {
        t.cell(ps.name)
            .cell(toString(ps.arrival))
            .cell(ps.offeredRateHz, 0)
            .cell(ps.achievedRateHz(), 0)
            .cell(static_cast<uint64_t>(ps.latency.quantile(0.50)))
            .cell(static_cast<uint64_t>(ps.latency.quantile(0.99)))
            .cell(ps.requests);
        t.endRow();
    }
    t.print(std::cout);
}

void
printReplayCell(const CellResult &r)
{
    Table t({"workload", "IPC", "L1I MPKI", "L1D MPKI", "L2 MPKI",
             "L3 MPKI"});
    for (size_t i = 0; i < r.replay.reports.size(); ++i) {
        const CpuReport &rep = r.replay.reports[i];
        t.cell(r.replay.names[i])
            .cell(rep.ipc, 3)
            .cell(rep.l1iMpki, 3)
            .cell(rep.l1dMpki, 3)
            .cell(rep.l2Mpki, 3)
            .cell(rep.l3Mpki, 3);
        t.endRow();
    }
    t.print(std::cout);
}

int
cmdRun(const std::string &file, const RunnerOptions &opt,
       const std::string &json_path, std::optional<size_t> only_cell)
{
    ScenarioParse parse = loadScenario(file);
    std::vector<ScenarioCell> cells;
    if (parse.ok())
        cells = expandScenario(parse.spec, opt.baseScale,
                               parse.issues);
    if (!parse.ok()) {
        std::cerr << parse.formatIssues();
        return 1;
    }
    if (cells.empty()) {
        std::cerr << file << ": matrix expands to no cells\n";
        return 1;
    }
    if (only_cell && *only_cell >= cells.size()) {
        std::cerr << "--cell=" << *only_cell << " out of range (0.."
                  << cells.size() - 1 << ")\n";
        return 1;
    }

    ScenarioRunner runner(parse.spec, opt);
    std::cout << "=== " << toString(parse.spec.kind) << " scenario '"
              << parse.spec.name << "' (" << cells.size()
              << (cells.size() == 1 ? " cell" : " cells")
              << ", seed " << parse.spec.seed << ") ===\n";
    for (const ScenarioCell &cell : cells) {
        if (only_cell && cell.index != *only_cell)
            continue;
        std::cout << "\n-- cell " << cell.index << ": " << cell.label
                  << "\n\n";
        CellResult r = runner.runCell(cell);
        switch (parse.spec.kind) {
          case ScenarioKind::Sweep:
            printSweepCell(r, parse.spec);
            jsonSweepCell(r, parse.spec);
            break;
          case ScenarioKind::Traffic:
            printTrafficCell(r);
            jsonTrafficCell(r);
            break;
          case ScenarioKind::Replay:
            printReplayCell(r);
            jsonReplayCell(r);
            break;
        }
    }

    if (!json_path.empty()) {
        emitJson(json_path, parse.spec);
        std::cout << "\nwrote " << g_cells_json.size()
                  << " cell reports to " << json_path << "\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    RunnerOptions opt;
    std::string json_path;
    std::optional<size_t> only_cell;
    ReaderOptions reader = defaultReaderOptions();
    try {
        opt.baseScale = envScale();
        Flag scale = realFlag("scale", opt.baseScale, kMinScale, kMaxScale,
                              "base dataset scale (WCRT_SCALE or 0.5); the"
                              " scale-factor and scale axis still apply");
        const std::vector<FlagCommand> commands = {
            {"validate", "<file.scn>...", 1, SIZE_MAX, {}},
            {"expand", "<file.scn>", 1, 1, {scale}},
            {"run", "<file.scn>", 1, 1,
             {textFlag("json", json_path, "FILE",
                       "write a JSON report of every cell run"),
              countFlag("jobs", opt.jobs, 0, kMaxJobs, "worker cap, 0 = all"),
              textFlag("trace-dir", opt.traceDir, "DIR",
                       "trace cache (default: WCRT_TRACE_DIR or temp dir)"),
              choiceFlag("cell", only_cell,
                         [](const std::string &v, std::optional<size_t> &c) {
                             return assignIf(toCount(v, 0, UINT32_MAX), c);
                         },
                         "N", rangeText(0, UINT32_MAX),
                         "run only the cell with this index"),
              scale,
              choiceFlag("io", reader.io, parseTraceIo, "M",
                         "auto, stream or mmap", "trace transport"),
              choiceFlag("verify-crc", reader.crc, parseCrcMode, "M",
                         "always, once or never", "chunk CRC policy")}},
        };
        FlagArgs args = parseFlags(commands, {argv + 1, argv + argc});
        if (args.help) {
            std::cout << flagHelp("scenario_tool", commands);
            return 0;
        }
        reader.jobs = opt.jobs;  // --jobs also caps chunk decode
        setDefaultReaderOptions(reader);
        const std::string &cmd = args.command->name;
        if (cmd == "validate")
            return cmdValidate(args.positional, opt.baseScale);
        if (cmd == "expand")
            return cmdExpand(args.positional[0], opt.baseScale);
        return cmdRun(args.positional[0], opt, json_path, only_cell);
    } catch (const FlagError &err) {
        std::cerr << "scenario_tool: " << err.what() << "\n";
        return err.status;
    }
}
