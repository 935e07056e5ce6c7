package repro.bench

import repro.SparkSpec
import repro.core.TemporalGraph
import repro.data.{Datasets, DatasetSpec, Workload}
import repro.core.TspgQuery
import repro.dist.GraphDF

import scala.collection.mutable

/** Shared, lazily generated benchmark inputs. All bench suites run in one forked JVM
  * (`Test / parallelExecution := false`), so graphs and workloads are produced once per
  * `bench/test` invocation and reused across suites.
  */
object BenchData {

  private val graphs    = mutable.Map.empty[String, TemporalGraph]
  private val workloads = mutable.Map.empty[(String, Int, Int), IndexedSeq[TspgQuery]]

  def graph(spec: DatasetSpec): TemporalGraph =
    synchronized(graphs.getOrElseUpdate(spec.id, {
      val t0 = System.nanoTime()
      val g  = spec.generateCore(SparkSpec.shared)
      Console.err.println(f"[bench] generated ${spec.id}: n=${g.vertices.size} m=${g.m} " +
        f"(${(System.nanoTime() - t0) / 1e9}%.1f s)")
      g
    }))

  /** The paper's workload: `count` random temporally-satisfiable queries of span θ. */
  def queries(spec: DatasetSpec, count: Int, theta: Int = -1): IndexedSeq[TspgQuery] = {
    val th = if (theta > 0) theta else spec.theta
    synchronized(workloads.getOrElseUpdate((spec.id, th, count),
      Workload.queries(graph(spec), th, count, seed = spec.seed * 7919L + th)))
  }
}

/** Formatting and measurement helpers for the table-printing bench suites. */
object BenchUtil {

  /** Queries per dataset (paper: 1000). Tunable via REPRO_BENCH_QUERIES. */
  val nQueries: Int = sys.env.getOrElse("REPRO_BENCH_QUERIES", "20").toInt

  /** Per-query wall-clock budget for enumeration baselines, modelling the paper's 12h
    * INF cutoff. Tunable via REPRO_BENCH_CAP_MS.
    */
  val capMs: Long = sys.env.getOrElse("REPRO_BENCH_CAP_MS", "300").toLong

  /** Datasets to run (comma-separated ids). Default: all ten. */
  def datasets: IndexedSeq[repro.data.DatasetSpec] =
    sys.env.get("REPRO_BENCH_DATASETS") match {
      case Some(ids) => ids.split(',').toIndexedSeq.map(_.trim).filter(_.nonEmpty).map(Datasets.byId)
      case None      => Datasets.all
    }

  def timed[A](body: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a  = body
    (a, System.nanoTime() - t0)
  }

  def ms(nanos: Long): Double = nanos / 1e6

  /** Print a table block that is easy to diff between runs. */
  def table(title: String, header: Seq[String], rows: Seq[Seq[String]]): Unit = {
    val widths = header.indices.map(i => (header(i) +: rows.map(_(i))).map(_.length).max)
    def fmt(cells: Seq[String]) =
      cells.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  ")
    println(s"\n=== $title ===")
    println(fmt(header))
    rows.foreach(r => println(fmt(r)))
  }
}
