#include "scenario/runner.hh"

#include <algorithm>

#include "base/logging.hh"
#include "datagen/datasets.hh"
#include "stack/kvstore/store.hh"
#include "stack/run_env.hh"
#include "stack/sql/vectorized.hh"
#include "trace/tracer.hh"

namespace wcrt {

namespace {

/** Op-count sink for sessions nobody wants a trace from. */
class CountingSink : public TraceSink
{
  public:
    void consume(const MicroOp &) override { ++ops; }
    void consumeBatch(const OpBlockView &batch) override
    {
        ops += batch.count;
    }
    uint64_t ops = 0;
};

/**
 * Session scaffolding for the generator-backed targets, mirroring the
 * loadgen targets: a private RunEnv, a sink, a Tracer, plus the
 * (actor, op) counter that positions every generator draw.
 */
class GenSessionBase : public ActorSession
{
  public:
    GenSessionBase(uint64_t scenario_seed, uint64_t actor,
                   TraceSink *record)
        : scenarioSeed(scenario_seed), actor(actor), record(record)
    {
    }

    uint64_t traceOps() const override { return tracer->opCount(); }

  private:
    uint64_t scenarioSeed;
    uint64_t actor;
    uint64_t op = 0;
    // Declared before `tracer` so it outlives it: ~Tracer flushes its
    // buffered ops into this sink.
    CountingSink counting;
    TraceSink *record;

  protected:
    void
    buildTracer()
    {
        tracer = std::make_unique<Tracer>(
            env.layout, record ? *record : counting);
    }

    /** The next draw position; advances once per request. */
    GenCtx
    nextCtx()
    {
        return {scenarioSeed, actor, op++};
    }

    RunEnv env;
    std::unique_ptr<Tracer> tracer;
};

/**
 * kv-get with the key rank drawn by a scenario generator instead of
 * the target's built-in Zipf, plus optional per-response document
 * accounting (doc-gen) into the session's network counter.
 */
class GenKvTarget : public TrafficTarget
{
  public:
    GenKvTarget(double scale, uint64_t dataset_seed,
                uint64_t scenario_seed, ValueGen key_gen,
                const ValueGen *doc_gen)
        : catalog(heap, scale, dataset_seed),
          data(catalog.profSearch()), keyGen(std::move(key_gen)),
          scenarioSeed(scenario_seed)
    {
        if (doc_gen)
            docGen = std::make_unique<ValueGen>(*doc_gen);
    }

    std::string name() const override { return "kv-get"; }

    std::unique_ptr<ActorSession> startSession(
        uint64_t actor_id, uint64_t, TraceSink *record) override
    {
        return std::make_unique<Session>(*this, actor_id, record);
    }

  private:
    class Session : public GenSessionBase
    {
      public:
        Session(const GenKvTarget &t, uint64_t actor,
                TraceSink *record)
            : GenSessionBase(t.scenarioSeed, actor, record),
              target(t), store(env.layout, t.data)
        {
            buildTracer();
        }

        void
        request(Rng &) override
        {
            GenCtx ctx = nextCtx();
            uint64_t index =
                target.keyGen.drawIndex(ctx) % target.data.keys.size();
            store.get(*tracer, env, index);
            if (target.docGen) {
                // The response document travels the wire: account its
                // bytes like the stack engines account their I/O.
                env.io.networkBytes +=
                    target.docGen->drawText(ctx).size();
            }
        }

      private:
        const GenKvTarget &target;
        KvStore store;
    };

    VirtualHeap heap;  //!< owns the shared dataset's addresses
    DatasetCatalog catalog;
    KvDataset data;    //!< immutable once built
    ValueGen keyGen;
    std::unique_ptr<ValueGen> docGen;  //!< optional
    uint64_t scenarioSeed;
};

/**
 * sql-filter with the per-request predicate threshold drawn by a
 * scenario generator instead of the target's built-in uniform.
 */
class GenSqlTarget : public TrafficTarget
{
  public:
    GenSqlTarget(double scale, uint64_t dataset_seed,
                 uint64_t scenario_seed, ValueGen query_gen)
        : catalog(heap, scale, dataset_seed),
          orders(catalog.ecommerceOrders()),
          queryGen(std::move(query_gen)), scenarioSeed(scenario_seed)
    {
        allRows.reserve(orders.rows);
        for (uint64_t r = 0; r < orders.rows; ++r)
            allRows.push_back(r);
    }

    std::string name() const override { return "sql-filter"; }

    std::unique_ptr<ActorSession> startSession(
        uint64_t actor_id, uint64_t, TraceSink *record) override
    {
        return std::make_unique<Session>(*this, actor_id, record);
    }

  private:
    class Session : public GenSessionBase
    {
      public:
        Session(const GenSqlTarget &t, uint64_t actor,
                TraceSink *record)
            : GenSessionBase(t.scenarioSeed, actor, record),
              target(t), engine(env.layout)
        {
            buildTracer();
        }

        void
        request(Rng &) override
        {
            double threshold =
                target.queryGen.drawScalar(nextCtx());
            Selection sel = engine.filterFloat64(
                env, *tracer, target.orders, "amount", target.allRows,
                [threshold](double v) { return v > threshold; });
            engine.project(env, *tracer, target.orders,
                           {"order_id", "amount"}, sel);
        }

      private:
        const GenSqlTarget &target;
        VectorizedEngine engine;
    };

    VirtualHeap heap;
    DatasetCatalog catalog;
    DataTable orders;   //!< immutable once built
    Selection allRows;  //!< the scan-everything selection
    ValueGen queryGen;
    uint64_t scenarioSeed;
};

/** Dataset-generation seed shared with makeTrafficTarget()'s default. */
constexpr uint64_t kDatasetSeed = 7;

} // namespace

std::unique_ptr<TrafficTarget>
makeScenarioTarget(const ScenarioSpec &spec, double scale)
{
    if (spec.target == "kv-get" && !spec.keyGen.empty()) {
        const ValueGen *doc = nullptr;
        if (!spec.docGen.empty())
            doc = &spec.generators.at(spec.docGen);
        return std::make_unique<GenKvTarget>(
            scale, kDatasetSeed, spec.seed,
            spec.generators.at(spec.keyGen), doc);
    }
    if (spec.target == "sql-filter" && !spec.queryGen.empty()) {
        return std::make_unique<GenSqlTarget>(
            scale, kDatasetSeed, spec.seed,
            spec.generators.at(spec.queryGen));
    }
    return makeTrafficTarget(spec.target, scale);
}

ScenarioRunner::ScenarioRunner(const ScenarioSpec &spec,
                               RunnerOptions opt)
    : spec(spec), opt(opt), cache(opt.traceDir)
{
}

std::vector<ScenarioCell>
ScenarioRunner::cells(std::vector<ScenarioIssue> &issues) const
{
    return expandScenario(spec, opt.baseScale, issues);
}

CellResult
ScenarioRunner::runCell(const ScenarioCell &cell)
{
    CellResult out;
    out.cell = cell;
    switch (spec.kind) {
      case ScenarioKind::Sweep:
        out.sweep = runSweepCell(cell);
        break;
      case ScenarioKind::Traffic:
        out.traffic = runTrafficCell(cell);
        break;
      case ScenarioKind::Replay:
        out.replay = runReplayCell(cell);
        break;
    }
    return out;
}

SweepCellResult
ScenarioRunner::runSweepCell(const ScenarioCell &cell)
{
    // Mirrors bench/footprint_common.hh averageSweepMrc() exactly:
    // same cache keys, same ladder call, same sum order — the source
    // of the scenario-vs-bench bit-identity guarantee.
    SweepCellResult out;
    out.curve.assign(spec.sizesKb.size(), 0.0);
    if (cell.group.entries.empty())
        return out;
    for (const auto &entry : cell.group.entries) {
        std::string path = cache.ensure(
            entry.name, cell.scale,
            [&] { return entry.make(cell.scale); });
        MrcResult r = replaySweepLadder(path, spec.sweepKind,
                                        spec.sizesKb, cell.mode,
                                        opt.jobs, spec.assoc,
                                        spec.lineBytes);
        out.maxDivergence =
            std::max(out.maxDivergence, r.maxDivergence);
        for (size_t i = 0; i < out.curve.size(); ++i)
            out.curve[i] += r.ratios[i];
    }
    for (auto &v : out.curve)
        v /= static_cast<double>(cell.group.entries.size());
    return out;
}

TrafficCellResult
ScenarioRunner::runTrafficCell(const ScenarioCell &cell)
{
    TrafficCellResult out;

    bool needs_probe = false;
    for (const auto &p : spec.phases)
        needs_probe = needs_probe || p.rateX > 0.0;

    // Per-actor capacity mu1 from a strictly serial closed loop (the
    // service_latency idiom): rate-x phases offer fractions of what
    // one actor can actually serve, independent of host parallelism.
    if (needs_probe) {
        auto probe_target = makeScenarioTarget(spec, cell.scale);
        OrchestratorConfig pc;
        pc.actors = 1;
        pc.jobs = 1;
        pc.seed = spec.seed;
        std::vector<PhaseSpec> probe_phases{
            warmupPhase(spec.probeOps / 4 + 1),
            closedPhase("capacity-probe", spec.probeOps),
        };
        Orchestrator probe(*probe_target, probe_phases, pc);
        TrafficResult pr = probe.run();
        out.capacityHz = pr.phases.front().achievedRateHz();
        if (out.capacityHz <= 0.0)
            wcrt_fatal("capacity probe measured no throughput for"
                       " target ", spec.target);
    }

    auto target = makeScenarioTarget(spec, cell.scale);
    OrchestratorConfig cfg;
    cfg.actors = spec.actors;
    cfg.jobs = opt.jobs;
    cfg.seed = spec.seed;
    std::vector<PhaseSpec> phases;
    for (const auto &p : spec.phases) {
        double rate = p.rateHz > 0.0 ? p.rateHz
                                     : p.rateX * out.capacityHz;
        PhaseSpec ps;
        switch (p.arrival) {
          case ArrivalKind::ClosedLoop:
            ps = closedPhase(p.name, p.ops, p.thinkNs);
            break;
          case ArrivalKind::PoissonOpen:
            ps = poissonPhase(p.name, p.ops, rate);
            break;
          case ArrivalKind::TokenBucket:
            ps = tokenBucketPhase(p.name, p.ops, rate, p.burst);
            break;
        }
        ps.record = p.record;
        phases.push_back(std::move(ps));
    }
    Orchestrator run(*target, phases, cfg);
    out.result = run.run();
    return out;
}

ReplayCellResult
ScenarioRunner::runReplayCell(const ScenarioCell &cell)
{
    ReplayCellResult out;
    std::vector<std::string> paths;
    for (const auto &entry : cell.group.entries) {
        out.names.push_back(entry.name);
        paths.push_back(cache.ensure(
            entry.name, cell.scale,
            [&] { return entry.make(cell.scale); }));
    }
    out.reports = replayTracesOn(paths, cell.machine, opt.jobs);
    return out;
}

} // namespace wcrt
