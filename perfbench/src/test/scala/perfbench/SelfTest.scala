package perfbench

import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.Random

import repro.core.{Subgraph, TEdge, TemporalGraph, Vug}

/** The benchmark's own tests, on a tiny graph and without Spark:
  * `python3 perfbench/run.py --self-test`. Exits 1 if any test fails.
  */
object SelfTest {

  private val failures = mutable.ArrayBuffer.empty[String]

  private def test(name: String)(body: => Unit): Unit =
    try { body; println(s"ok   $name") }
    catch { case e: Throwable => failures += name; println(s"FAIL $name: $e") }

  private def expect(cond: Boolean, what: => String): Unit =
    if (!cond) throw new AssertionError(what)

  /** 12 vertices, 150 random edges over timestamps 1..30. */
  private val tiny: TemporalGraph = {
    val rng = new Random(3)
    TemporalGraph(12, Seq.fill(150)(TEdge(rng.nextInt(12), rng.nextInt(12), 1 + rng.nextInt(30))))
  }

  private def workers: Int =
    Thread.getAllStackTraces.keySet.asScala.count(t => t.getName == "perfbench-worker" && t.isAlive)

  def main(args: Array[String]): Unit = {
    val Inf = Double.PositiveInfinity

    test("p95 is omitted below 200 samples and reported from 200") {
      expect(Stats.summarize(Seq.tabulate(199)(_.toDouble + 1)).p95Ms.isEmpty, "p95 at 199 samples")
      val s = Stats.summarize(Seq.tabulate(200)(_.toDouble + 1).reverse)
      expect(s.p95Ms.contains(190.0), s"p95 of 1..200 = ${s.p95Ms}")
      expect(s.p50Ms == 100.0, s"p50 of 1..200 = ${s.p50Ms}")
      expect(s.samples == 200 && s.maxMs == 200.0, s"summary $s")
    }

    test("failed queries count as +inf latency") {
      expect(Stats.summarize(Seq(1.0, Inf, 2.0)).p50Ms == 2.0, "one failure of three")
      expect(Stats.summarize(Seq(1.0, Inf, Inf)).p50Ms == Inf, "two failures of three")
    }

    test("deadline stops the worker and names the phase it hit") {
      val phase = new Phase
      val before = workers
      val out = Deadline.run(100, phase) { phase.enter("eev"); while (true) {}; 0 }
      expect(out match { case Missed("eev", _) => true; case _ => false }, s"outcome $out")
      expect(workers == before, "worker still alive after its deadline")
    }

    test("misses, exceptions and wrong answers are failures; throughput counts completions") {
      val pool = IndexedSeq(0, 1, 2, 3, 4)
      val loop = ClosedLoop.run(2, Inf, pool, deadlineMs = 100, maxQueries = 5) {
        case 1 => while (true) {}; 0
        case 2 => throw new IllegalStateException("boom")
        case x => Thread.sleep(5); x
      }
      expect(loop.attempts.map(_.index) == (0 until 5), s"attempts ${loop.attempts.map(_.index)}")
      val t = Tally.of(loop, wrong = Set(4))
      expect(t.attempted == 5 && t.completed == 2 && t.failed == 3, s"tally $t")
      expect(t.misses == 1 && t.errors == 1 && t.wrong == 1, s"tally $t")
      expect(t.latenciesMs.count(_.isInfinite) == 3, s"latencies ${t.latenciesMs}")
      expect(math.abs(t.throughputQps - 2 / (loop.wallNanos / 1e9)) < 1e-9, "throughput")
      expect(t.successRatio == 0.4, s"success ratio ${t.successRatio}")
      expect(workers == 0, "worker still alive after the run")
    }

    test("closed loop stops sending after its time") {
      val loop = ClosedLoop.run(1, 0.2, IndexedSeq(0), deadlineMs = 1000) { _ => Thread.sleep(20); 0 }
      expect(loop.attempts.size >= 5 && loop.attempts.size <= 11, s"${loop.attempts.size} attempts")
    }

    test("the same seed gives the same queries and digests") {
      val a = Pool.generate(tiny, 8, 40, seed = 5)
      val b = Pool.generate(tiny, 8, 40, seed = 5)
      expect(a.size == 40 && a == b, "pools differ")
      expect(Pool.generate(tiny, 8, 40, seed = 6) != a, "another seed gives the same pool")
      expect(Pool.generate(tiny, 8, 20, seed = 5) == a.take(20), "pool is not a prefix")
      val da = a.map(q => Digest.of(Vug.run(tiny, q).tspg))
      val db = b.map(q => Digest.of(Vug.run(tiny, q).tspg))
      expect(da == db, "digests differ")
      expect(Digest.of(Subgraph.ofEdges(Seq(TEdge(0, 1, 2), TEdge(1, 2, 3)))) ==
        Digest.of(Subgraph.ofEdges(Seq(TEdge(1, 2, 3), TEdge(0, 1, 2)))), "digest depends on order")
    }

    test("checker accepts VUG answers and rejects a wrong one") {
      val pool = Pool.generate(tiny, 8, 40, seed = 5)
      val golden = pool.map(q => Digest.of(Vug.run(tiny, q).tspg))
      val checker = new Checker(tiny, golden, referenceBudgetNs = Long.MaxValue)
      pool.indices.foreach { i =>
        val r = Vug.run(tiny, pool(i))
        val why = checker.check(i, pool(i), Answer(r.tspg, r.gq.edges, r.gt.edges))
        expect(why.isEmpty, s"query $i rejected: $why")
      }
      expect(checker.referenceChecked == pool.distinct.size, s"${checker.referenceChecked} reference checks")
      val i = pool.indices.find(i => Vug.run(tiny, pool(i)).tspg.edgeCount > 1).get
      val r = Vug.run(tiny, pool(i))
      val cut = Subgraph.ofEdges(r.tspg.edges.tail)
      val fresh = new Checker(tiny, IndexedSeq.empty, referenceBudgetNs = Long.MaxValue)
      expect(fresh.check(i, pool(i), Answer(cut, r.gq.edges, r.gt.edges)).nonEmpty,
        "an answer missing an edge passed")
      expect(new Checker(tiny, golden, 0L).check(i, pool(i), Answer(cut, r.gq.edges, r.gt.edges)).nonEmpty,
        "golden digest did not catch a missing edge")
    }

    test("window edge count and edge lookup agree with a scan") {
      val q = Pool.generate(tiny, 8, 1, seed = 9).head
      expect(Checker.windowEdges(tiny, q) == tiny.edges.count(e => e.ts >= q.tauB && e.ts <= q.tauE), "window")
      expect(tiny.edges.forall(Checker.contains(tiny, _)), "an edge of g not found")
      expect(!Checker.contains(tiny, TEdge(0, 0, 1)) && !Checker.contains(tiny, TEdge(1, 2, 99)), "a non-edge found")
    }

    if (failures.nonEmpty) {
      println(s"${failures.size} failed: ${failures.mkString("; ")}")
      sys.exit(1)
    }
    println("all self-tests passed")
    sys.exit(0)
  }
}
