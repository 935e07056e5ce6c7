package perfbench

import java.util.concurrent.Executors

import repro.core.{TemporalGraph, TspgQuery}
import repro.data.Workload

/** One benchmark workload.
  *
  * @param dataset        dataset id from [[repro.data.Datasets]]
  * @param theta          query interval span θ
  * @param clients        closed-loop clients sharing the graph
  * @param deadlineMs     per-query deadline; a miss counts as failed and `+∞` latency
  * @param poolSize       distinct queries generated from the seed; the run cycles them
  * @param warmupPerClient queries each client runs before timing starts
  * @param setupReps      times the dataset is generated and built; `setup_s` uses the median
  * @param traceQps       traced queries per requested second (the traced run's query count)
  * @param traceDist      the traced run also answers one query, at the dataset's
  *                       default θ, with the Spark pipeline
  * @param spark          queries go through `DistVug.run` instead of `Vug.run`
  */
final case class WorkloadSpec(name: String, dataset: String, theta: Int, clients: Int,
                              deadlineMs: Long, poolSize: Int, warmupPerClient: Int,
                              setupReps: Int, traceQps: Double, traceDist: Boolean = false,
                              spark: Boolean = false)

object Workloads {

  val nproc: Int = Runtime.getRuntime.availableProcessors

  val all: IndexedSeq[WorkloadSpec] = IndexedSeq(
    // QuickUBG-bound: large m, small answers; one client. θ=10, not R9's default 20:
    // at θ=20 about one query in 128 runs EEV's unbounded stage 3 past 5 s.
    WorkloadSpec("sparse-r9", "R9", theta = 10, clients = 1, deadlineMs = 5000,
      poolSize = 128, warmupPerClient = 15, setupReps = 1, traceQps = 1.0),
    // Dense windows on a tiny vertex set, at R1's default θ, where every query
    // finishes. One client: two gave about twice the run-to-run spread.
    WorkloadSpec("dense-r1", "R1", theta = 10, clients = 1, deadlineMs = 5000,
      poolSize = 1024, warmupPerClient = 200, setupReps = 3, traceQps = 4.0,
      traceDist = true),
    // EEV-bound (the θ-sweep regime), with EEV stage 3's unbounded searches: about
    // 12% of queries miss the deadline.
    WorkloadSpec("eev-r1", "R1", theta = 20, clients = 2, deadlineMs = 250,
      poolSize = 2048, warmupPerClient = 60, setupReps = 3, traceQps = 4.0,
      traceDist = true),
    // The sparse-r9 graph and queries under contention.
    WorkloadSpec("concurrent-r9", "R9", theta = 10, clients = nproc, deadlineMs = 5000,
      poolSize = 128, warmupPerClient = 2, setupReps = 1, traceQps = 1.0),
    // The Spark pipeline: 8-40 s and hundreds of Spark jobs per query.
    WorkloadSpec("dist-r1", "R1", theta = 10, clients = 1, deadlineMs = 150000,
      poolSize = 8, warmupPerClient = 1, setupReps = 1, traceQps = 1.0,
      traceDist = true, spark = true),
  )

  def byName(name: String): WorkloadSpec =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(
        s"unknown workload '$name' (known: ${all.map(_.name).mkString(", ")})"))
}

/** The query pool of a run: `size` queries from [[Workload.queries]], generated in
  * blocks of [[Block]] with block `b` seeded `seed * 1000003 + b`, so blocks can be
  * generated in parallel and the pool depends only on `(g, theta, size, seed)`.
  */
object Pool {

  val Block = 16

  def generate(g: TemporalGraph, theta: Int, size: Int, seed: Long,
               threads: Int = Workloads.nproc): IndexedSeq[TspgQuery] = {
    val blocks = (size + Block - 1) / Block
    val ex     = Executors.newFixedThreadPool(threads)
    try {
      val futures = (0 until blocks).map { b =>
        ex.submit(() => Workload.queries(g, theta, Block, seed * 1000003L + b))
      }
      futures.flatMap(_.get()).take(size)
    } finally ex.shutdownNow()
  }
}
