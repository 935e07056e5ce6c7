package perfbench

import java.io.File
import java.lang.management.ManagementFactory
import java.util.concurrent.atomic.AtomicInteger

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.PerfbenchHooks
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageSubmitted}
import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core._
import repro.data.{DatasetSpec, Datasets}
import repro.dist.{DistQuickUbg, DistTightUbg, DistVug, DistVugResult, GraphDF}

/** Command-line options of one benchmark run. */
final case class Options(workload: WorkloadSpec, seed: Long, seconds: Double, trace: Boolean,
                         goldenDir: File, outDir: File, gitSha: String, sourceHash: String)

/** A metric of the result line. */
final case class Metric(name: String, value: Double, unit: String)

/** Runs one workload and prints its metrics; the last stdout line is the result. */
object Main {

  /** Seed whose answers the golden digests record. */
  val DefaultSeed = 1L

  /** Wall-clock budget for the enumeration cross-check in one run. */
  val ReferenceBudgetNs: Long = 2L * 1000 * 1000 * 1000

  def main(args: Array[String]): Unit = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    if (kv.contains("write-golden")) { writeGolden(kv); sys.exit(0) }
    val opts = Options(
      workload   = Workloads.byName(kv.getOrElse("workload", "")),
      seed       = kv.getOrElse("seed", DefaultSeed.toString).toLong,
      seconds    = kv.getOrElse("seconds", "10").toDouble,
      trace      = kv.getOrElse("trace", "0") == "1",
      goldenDir  = new File(kv.getOrElse("golden-dir", "perfbench/golden")),
      outDir     = new File(kv.getOrElse("out-dir", ".bench_build/perfbench")),
      gitSha     = kv.getOrElse("git-sha", "unknown"),
      sourceHash = kv.getOrElse("source-hash", "unknown"),
    )
    val (summary, metrics) = if (opts.trace) Traced.run(opts) else Untraced.run(opts)
    metrics.foreach(m => println(f"  ${m.name}%-28s = ${m.value}%.6g ${m.unit}"))
    println("PERFBENCH_RESULT " + Json.obj(Seq(
      "correct"   -> summary.correct.toString,
      "attempted" -> summary.attempted.toString,
      "failed"    -> summary.failed.toString,
      "metrics"   -> Json.obj(metrics.map(m =>
        m.name -> Json.obj(Seq("value" -> Json.num(m.value), "unit" -> Json.str(m.unit))))),
    )))
    System.out.flush()
    sys.exit(0)
  }

  final case class Summary(correct: Boolean, attempted: Int, failed: Int)

  // --- shared set-up -----------------------------------------------------------------

  def spark(outDir: File): SparkSession = {
    val local = new File(outDir, "tmp").getAbsoluteFile
    local.mkdirs()
    val s = SparkSession.builder()
      .master(s"local[${Workloads.nproc}]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", local.getPath)
      .config("spark.sql.warehouse.dir", new File(local, "warehouse").getPath)
      .config("spark.sql.shuffle.partitions", Workloads.nproc.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  /** Seconds since the JVM started. */
  def uptimeS(): Double = ManagementFactory.getRuntimeMXBean.getUptime / 1e3

  def seconds[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a  = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** Heap in use after a full collection, MB. */
  def heapAfterGcMb(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1e6
  }

  def goldenFile(dir: File, spec: DatasetSpec, theta: Int): File =
    new File(dir, s"${spec.id}-theta$theta.txt")

  def answer(g: TemporalGraph, q: TspgQuery): Answer = {
    val r = Vug.run(g, q)
    Answer(r.tspg, r.gq.edges, r.gt.edges)
  }

  /** Checks every completed answer; returns the attempt indices with wrong answers. */
  def checkAll(checker: Checker, pool: IndexedSeq[TspgQuery],
               attempts: Seq[Attempt[Answer]]): Set[Int] =
    attempts.flatMap { a =>
      a.outcome match {
        case Done(ans, _, _) =>
          val idx = a.index % pool.size
          checker.check(idx, pool(idx), ans).map { why =>
            Console.err.println(s"perfbench: WRONG answer to pool query $idx ${pool(idx)}: $why")
            a.index
          }
        case _ => None
      }
    }.toSet

  /** Collects each Spark answer's upper-bound graphs, after the timed region. */
  def collectAnswers(loop: LoopResult[DistVugResult]): LoopResult[Answer] =
    loop.copy(attempts = loop.attempts.map { a =>
      a.copy(outcome = a.outcome match {
        case Done(r, nanos, bytes) =>
          Done(Answer(r.tspg, GraphDF.toEdgeSet(r.gq).toArray, GraphDF.toEdgeSet(r.gt).toArray), nanos, bytes)
        case Missed(p, b) => Missed(p, b)
        case Threw(e, b)  => Threw(e, b)
      })
    })

  /** Runs the warm-up queries (from the end of the pool); returns how many. */
  def warmUp[A](w: WorkloadSpec, pool: IndexedSeq[TspgQuery])(call: TspgQuery => A): Int = {
    val n = w.warmupPerClient * w.clients
    ClosedLoop.run(w.clients, Double.PositiveInfinity, pool.reverse, w.deadlineMs, n)(call)
    n
  }

  def knobs(opts: Options, extra: Seq[(String, String)]): Unit = {
    val w = opts.workload
    println("perfbench knobs: " + Json.obj(Seq(
      "workload"    -> Json.str(w.name),
      "dataset"     -> Json.str(w.dataset),
      "theta"       -> w.theta.toString,
      "clients"     -> w.clients.toString,
      "seed"        -> opts.seed.toString,
      "seconds"     -> Json.num(opts.seconds),
      "trace"       -> opts.trace.toString,
      "deadline_ms" -> w.deadlineMs.toString,
      "pool_size"   -> w.poolSize.toString,
      "nproc"       -> Workloads.nproc.toString,
      "heap_max_mb" -> Json.num(Runtime.getRuntime.maxMemory / 1e6),
      "spark_driver_mem" -> Json.str(sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")),
      "jvm"         -> Json.str(s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}"),
      "git_sha"     -> Json.str(opts.gitSha),
      "source_hash" -> Json.str(opts.sourceHash),
    ) ++ extra))
  }

  // --- golden digests ----------------------------------------------------------------

  /** Writes golden digests for `--seed` (default [[DefaultSeed]]) of a workload's pool:
    * `--write-golden <workload> --count <n> --deadline-ms <ms>`.
    */
  private def writeGolden(kv: Map[String, String]): Unit = {
    val w     = Workloads.byName(kv("write-golden"))
    val seed  = kv.getOrElse("seed", DefaultSeed.toString).toLong
    val count = kv.getOrElse("count", w.poolSize.toString).toInt
    val dl    = kv.getOrElse("deadline-ms", "10000").toLong
    val out   = new File(kv.getOrElse("out-dir", ".bench_build/perfbench"))
    val s     = spark(out)
    val spec  = Datasets.byId(w.dataset)
    val g     = spec.generateCore(s)
    val pool  = Pool.generate(g, w.theta, math.max(count, w.poolSize), seed).take(count)
    val lines = pool.map { q =>
      Deadline.run(dl)(Vug.run(g, q).tspg) match {
        case Done(t, _, _) => Digest.of(t)
        case _             => "-"
      }
    }
    val file = goldenFile(new File(kv.getOrElse("golden-dir", "perfbench/golden")), spec, w.theta)
    file.getParentFile.mkdirs()
    val pw = new java.io.PrintWriter(file, "UTF-8")
    try {
      pw.println(s"# tspG digests (perfbench Digest.of) of pool queries 0..${count - 1}, " +
        s"${spec.id} theta=${w.theta} seed=$seed; '-' = not finished within $dl ms")
      lines.foreach(pw.println)
    } finally pw.close()
    println(s"wrote ${file.getPath}: ${lines.count(_ != "-")}/${lines.size} digests")
  }
}

/** The untraced run: end-to-end metrics only. */
object Untraced {
  import Main._

  def run(opts: Options): (Summary, Seq[Metric]) = {
    val w     = opts.workload
    val spec  = Datasets.byId(w.dataset)
    val s     = spark(opts.outDir)
    val sparkS = uptimeS()
    var g: TemporalGraph = null
    val buildS = (0 until w.setupReps).map { _ =>
      g = null // let the previous repetition's graph be collected
      val (graph, t) = seconds(spec.generateCore(s))
      g = graph
      t
    }
    // The Spark pipeline reads the graph as a cached edge table, built during set-up.
    val (edges, loadS) =
      if (!w.spark) (null, 0.0)
      else seconds { val df = GraphDF.fromCore(s, g).cache(); df.count(); df }
    val setupS = sparkS + Stats.median(buildS) + loadS
    val heapMb = heapAfterGcMb()

    val pool    = Pool.generate(g, w.theta, w.poolSize, opts.seed)
    val (warmups, loop) =
      if (!w.spark) {
        val call = answer(g, _: TspgQuery)
        (warmUp(w, pool)(call), ClosedLoop.run(w.clients, opts.seconds, pool, w.deadlineMs)(call))
      } else {
        val call = DistVug.run(s, edges, _: TspgQuery)
        (warmUp(w, pool)(call),
          collectAnswers(ClosedLoop.run(w.clients, opts.seconds, pool, w.deadlineMs)(call)))
      }

    // Spark answers must equal core's, so core's digests serve as their golden ones.
    val golden =
      if (w.spark) pool.take(loop.attempts.size).map(q => Digest.of(Vug.run(g, q).tspg))
      else if (opts.seed == DefaultSeed) Golden.load(goldenFile(opts.goldenDir, spec, w.theta))
      else IndexedSeq.empty
    val checker = new Checker(g, golden, ReferenceBudgetNs)
    val wrong   = checkAll(checker, pool, loop.attempts)
    val tally   = Tally.of(loop, wrong)
    loop.attempts.collectFirst { case Attempt(_, _, Threw(e, _)) => e }
      .foreach(e => Console.err.println(s"perfbench: query threw: $e"))
    val lat = Stats.summarize(tally.latenciesMs)

    knobs(opts, Seq(
      "queries"           -> tally.attempted.toString,
      "distinct_queries"  -> math.min(tally.attempted, pool.size).toString,
      "warmup_queries"    -> warmups.toString,
      "setup_reps_s"      -> buildS.map(Json.num).mkString("[", ", ", "]"),
      "deadline_misses"   -> tally.misses.toString,
      "exceptions"        -> tally.errors.toString,
      "wrong_answers"     -> tally.wrong.toString,
      "reference_checked" -> checker.referenceChecked.toString,
      "golden_checked"    -> (golden.nonEmpty).toString,
    ))
    println(f"perfbench ${w.name}: ${lat.samples} queries, p50 ${lat.p50Ms}%.3f ms, " +
      lat.p95Ms.fold(s"p95 omitted (< ${Stats.MinSamplesForP95} samples)")(p => f"p95 $p%.3f ms") +
      f", max ${lat.maxMs}%.3f ms, ${tally.misses} deadline misses")
    // JSON has no +∞: a run failing over half its queries reports the deadline, a lower bound.
    val p50 = if (lat.p50Ms.isInfinite) w.deadlineMs.toDouble else lat.p50Ms
    val metrics = Seq(
      Metric("setup_s", setupS, "s"),
      Metric("latency_p50_ms", p50, "ms"),
      Metric("throughput_qps", tally.throughputQps, "1/s"),
      Metric("success_ratio", tally.successRatio, "ratio"),
      Metric("heap_mb", heapMb, "MB"),
    )
    s.stop()
    (Summary(wrong.isEmpty, tally.attempted, tally.failed), metrics)
  }
}

/** The traced run: each layer's public calls one at a time, with spans. */
object Traced {
  import Main._

  private val Layers = Seq("polarity", "quick", "tcv", "tight", "eev")

  private def layerOf(phase: String): String = phase.takeWhile(_ != '.') match {
    case "" | "query" => "query"
    case l            => l
  }

  def run(opts: Options): (Summary, Seq[Metric]) = {
    val w    = opts.workload
    val spec = Datasets.byId(w.dataset)
    val s    = spark(opts.outDir)
    val sparkS = uptimeS()
    var g: TemporalGraph = null
    val reps = (0 until w.setupReps).map { _ =>
      g = null // let the previous repetition's graph be collected
      val (es, genS) = seconds(GraphDF.canon(spec.generate(s)).collect().map { r =>
        TEdge(r.getLong(0).toInt, r.getLong(1).toInt, r.getLong(2).toInt)
      })
      val (graph, buildS) = seconds(TemporalGraph((spec.n + 1).toInt, es))
      g = graph
      (genS, buildS)
    }
    val pool    = Pool.generate(g, w.theta, w.poolSize, opts.seed)
    val warmups = warmUp(w, pool)(answer(g, _))
    val k       = math.min(pool.size, math.max(1, math.ceil(w.traceQps * opts.seconds).toInt))
    val queries = pool.take(k)

    // Untraced single-client reference latencies of the same queries.
    val gcBefore  = gcTotals()
    val reference = ClosedLoop.run(1, Double.PositiveInfinity, queries, w.deadlineMs, k)(answer(g, _))
    val gcRef     = gcTotals() - gcBefore
    // Under the workload's own client count, for the JVM metrics.
    val (jvmLoop, jvmGc) =
      if (w.clients == 1) (reference, gcRef)
      else {
        val before = gcTotals()
        val l = ClosedLoop.run(w.clients, Double.PositiveInfinity, queries, w.deadlineMs, k * w.clients)(answer(g, _))
        (l, gcTotals() - before)
      }

    // Traced pass.
    val tracer   = new Tracer()
    val stats    = mutable.ArrayBuffer.empty[EevStats]
    val windows  = mutable.ArrayBuffer.empty[Int]
    val traced   = queries.indices.map { i =>
      val q = queries(i)
      val out = Deadline.run(w.deadlineMs, tracer.phase)(tracer.span(i, "query") {
        val gq = tracer.span(i, "quick") {
          val a = tracer.span(i, "polarity.arrivals")(PolarityTime.arrivals(g, q))
          val d = tracer.span(i, "polarity.departures")(PolarityTime.departures(g, q))
          tracer.span(i, "quick.filter")(QuickUbg(g, a, d))
        }
        val gt = tracer.span(i, "tight") {
          val f = tracer.span(i, "tcv.forward")(Tcv.forward(gq, q))
          val b = tracer.span(i, "tcv.backward")(Tcv.backward(gq, q))
          tracer.span(i, "tight.filter")(TightUbg(gq, q, f, b))
        }
        val tspg = tracer.span(i, "eev")(Eev(gt, q))
        (Answer(tspg, gq.edges, gt.edges), Eev.lastStats)
      })
      tracer.reset()
      out match {
        case Done((_, st), _, _) => stats += st; windows += Checker.windowEdges(g, q)
        case _                   =>
      }
      Attempt(0, i, out match {
        case Done((a, _), n, b) => Done(a, n, b)
        case Missed(p, b)       => Missed(p, b)
        case Threw(e, b)        => Threw(e, b)
      })
    }

    // Spark pipeline, layer by layer, on the same graph.
    val dist = if (w.traceDist) Some(Dist.run(s, g, spec.theta, opts.seed, tracer, k)) else None

    val checker = new Checker(g, if (opts.seed == DefaultSeed)
      Golden.load(goldenFile(opts.goldenDir, spec, w.theta)) else IndexedSeq.empty, ReferenceBudgetNs)
    val wrong = checkAll(checker, queries, traced) ++ checkAll(checker, queries, reference.attempts)
    val wrongCount = wrong.size + dist.fold(0)(_.wrong)

    val spans   = tracer.all
    val self    = tracer.selfNanos
    def selfMs(name: String): Seq[Double] = spans.filter(_.name == name).map(x => self(x.id) / 1e6)
    def totalMs(name: String): Double = spans.filter(_.name == name).map(_.nanos / 1e6).sum
    def allocMb(name: String): Double = spans.filter(_.name == name).map(_.allocBytes / 1e6).sum
    def timing(metric: String, span: String): Seq[Metric] = {
      val xs = selfMs(span)
      Seq(Metric(s"$metric.p50", if (xs.isEmpty) 0.0 else Stats.median(xs), "ms"),
          Metric(s"$metric.sum", xs.sum, "ms"))
    }
    val done    = traced.collect { case Attempt(_, _, Done(a, _, _)) => a }
    val gqEdges = done.map(_.gq.length.toDouble).sum
    val gtEdges = done.map(_.gt.length.toDouble).sum
    val tsEdges = done.map(_.tspg.edgeCount.toDouble).sum
    val winEdges = windows.map(_.toDouble).sum
    def ratio(a: Double, b: Double) = if (b == 0) 0.0 else a / b
    val missedAt = traced.collect { case Attempt(_, _, Missed(p, _)) => layerOf(p) }
    val queryMs  = totalMs("query")

    // Overhead: traced vs untraced per-query totals over queries both completed.
    val refNanos = reference.attempts.collect { case Attempt(_, i, Done(_, n, _)) => i -> n }.toMap
    val both     = traced.collect { case Attempt(_, i, Done(_, n, _)) if refNanos.contains(i) => (n, refNanos(i)) }
    val overheadPct = ratio(both.map(_._1.toDouble).sum, both.map(_._2.toDouble).sum) * 100 - 100

    val jvmQueries = jvmLoop.attempts.size.toDouble
    val metrics =
      Seq(Metric("setup.spark_s", sparkS, "s"),
          Metric("setup.generate_s", Stats.median(reps.map(_._1)), "s"),
          Metric("setup.build_s", Stats.median(reps.map(_._2)), "s")) ++
      timing("polarity.arrivals_ms", "polarity.arrivals") ++
      timing("polarity.departures_ms", "polarity.departures") ++
      timing("quick.filter_ms", "quick.filter") ++
      Seq(Metric("quick.window_edges", winEdges, "count"),
          Metric("quick.gq_edges", gqEdges, "count"),
          Metric("quick.keep_ratio", ratio(gqEdges, winEdges), "ratio"),
          Metric("quick.alloc_mb", allocMb("quick"), "MB")) ++
      timing("tcv.forward_ms", "tcv.forward") ++
      timing("tcv.backward_ms", "tcv.backward") ++
      timing("tight.filter_ms", "tight.filter") ++
      Seq(Metric("tight.gt_edges", gtEdges, "count"),
          Metric("tight.keep_ratio", ratio(gtEdges, gqEdges), "ratio"),
          Metric("tight.alloc_mb", allocMb("tight"), "MB")) ++
      timing("eev.ms", "eev") ++
      Seq(Metric("eev.tspg_edges", tsEdges, "count"),
          Metric("eev.useful_ratio", ratio(tsEdges, gtEdges), "ratio"),
          Metric("eev.alloc_mb", allocMb("eev"), "MB"),
          Metric("eev.pre_verified", stats.map(_.preVerified.toDouble).sum, "count"),
          Metric("eev.witness_hits", stats.map(_.treeWitnessHits.toDouble).sum, "count"),
          Metric("eev.dfs_searches", stats.map(_.dfsSearches.toDouble).sum, "count"),
          Metric("eev.escalations", stats.map(_.escalations.toDouble).sum, "count"),
          Metric("eev.negatives", stats.map(_.negatives.toDouble).sum, "count")) ++
      Layers.map(l => Metric(s"$l.deadline_misses", missedAt.count(_ == l).toDouble, "count")) ++
      Seq(Metric("dist.deadline_misses", dist.fold(0.0)(_.missed.toDouble), "count")) ++
      Seq(Metric("phase.quick_pct", ratio(totalMs("quick"), queryMs) * 100, "%"),
          Metric("phase.tight_pct", ratio(totalMs("tight"), queryMs) * 100, "%"),
          Metric("phase.eev_pct", ratio(totalMs("eev"), queryMs) * 100, "%"),
          Metric("jvm.gc_ms", ratio(jvmGc._2.toDouble, jvmQueries), "ms"),
          Metric("jvm.gc_count", jvmGc._1.toDouble, "count"),
          Metric("jvm.alloc_mb", ratio(jvmLoop.attempts.map(_.outcome.allocBytes / 1e6).sum, jvmQueries), "MB")) ++
      Seq(Metric("dist.load_s", dist.fold(0.0)(_.loadS), "s")) ++
      timing("dist.quick_ms", "dist.quick") ++
      timing("dist.tight_ms", "dist.tight") ++
      timing("dist.eev_ms", "dist.eev") ++
      Seq(Metric("dist.spark_jobs", dist.fold(0.0)(_.jobs.toDouble), "count"),
          Metric("dist.spark_stages", dist.fold(0.0)(_.stages.toDouble), "count"),
          Metric("check.wrong_answers", wrongCount.toDouble, "count"),
          Metric("check.reference_checked", checker.referenceChecked.toDouble, "count"),
          Metric("trace.overhead_pct", overheadPct, "%"),
          Metric("trace.queries", k.toDouble, "count"))

    val traceFile = new File(opts.outDir, s"traces/${w.name}-seed${opts.seed}.jsonl")
    tracer.write(traceFile)
    val failed = traced.count(a => !a.outcome.isInstanceOf[Done[_]] || wrong(a.index)) +
      dist.fold(0)(_.failed)
    knobs(opts, Seq(
      "traced_queries"    -> k.toString,
      "dist_queries"      -> dist.size.toString,
      "warmup_queries"    -> warmups.toString,
      "spans"             -> spans.size.toString,
      "trace_file"        -> Json.str(traceFile.getPath),
    ))
    s.stop()
    (Summary(wrongCount == 0, k + dist.size, failed), metrics)
  }

  /** (collections, milliseconds) summed over all garbage collectors. */
  private def gcTotals(): (Long, Long) = {
    val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (gcs.map(_.getCollectionCount).sum, gcs.map(_.getCollectionTime).sum)
  }

  private implicit class PairMinus(val a: (Long, Long)) extends AnyVal {
    def -(b: (Long, Long)): (Long, Long) = (a._1 - b._1, a._2 - b._2)
  }
}

/** The Spark pipeline (`dist/`) traced phase by phase, as `DistVug.run` composes it. */
object Dist {

  final case class Result(loadS: Double, jobs: Int, stages: Int, wrong: Int, missed: Int, threw: Int) {
    def failed: Int = wrong + missed + threw
  }

  /** Deadline of one Spark query, which keeps a traced run within its time limit. */
  val DeadlineMs = 80000L

  /** Answers one query of span `theta` from `seed`'s pool; its span id is `queryId`. */
  def run(s: SparkSession, g: TemporalGraph, theta: Int, seed: Long,
          tracer: Tracer, queryId: Int): Result = {
    val jobs   = new AtomicInteger(0)
    val stages = new AtomicInteger(0)
    s.sparkContext.addSparkListener(new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
      override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = stages.incrementAndGet()
    })
    val (edges, loadS) = Main.seconds {
      val df = GraphDF.fromCore(s, g).cache()
      df.count()
      df
    }
    PerfbenchHooks.drainListenerBus(s.sparkContext)
    val jobs0 = jobs.get; val stages0 = stages.get
    val q = Pool.generate(g, theta, 1, seed).head
    var wrong, missed, threw = 0
    Deadline.run(DeadlineMs, tracer.phase)(
      tracer.span(queryId, "dist.query")(distTspg(s, edges, q, tracer, queryId))) match {
      case Done(tspg, _, _) =>
        val core = Vug.run(g, q).tspg
        if (tspg != core) {
          wrong = 1
          Console.err.println(s"perfbench: WRONG dist answer to $q: ${tspg.edgeCount} edges, core ${core.edgeCount}")
        }
      case Missed(_, _) => missed = 1
      case Threw(e, _)  => threw = 1; Console.err.println(s"perfbench: dist query threw: $e")
    }
    tracer.reset()
    PerfbenchHooks.drainListenerBus(s.sparkContext)
    edges.unpersist()
    Result(loadS, jobs.get - jobs0, stages.get - stages0, wrong, missed, threw)
  }

  /** `DistVug.run`'s phases: distributed QuickUBG and TightUBG, then collect + EEV. */
  private def distTspg(s: SparkSession, edges: DataFrame, q: TspgQuery,
                       tracer: Tracer, id: Int): Subgraph = {
    val gq = tracer.span(id, "dist.quick")(DistQuickUbg.compute(s, edges, q).localCheckpoint())
    val gt = tracer.span(id, "dist.tight")(DistTightUbg.compute(s, gq, q).localCheckpoint())
    tracer.span(id, "dist.eev") {
      val gtEdges = GraphDF.toEdgeSet(gt)
      val maxId   = (gtEdges.iterator.flatMap(e => Iterator(e.src, e.dst)) ++ Iterator(q.s, q.t)).max
      Eev(TemporalGraph(maxId + 1, gtEdges), q)
    }
  }
}
