package repro.core

import repro.SparkSpec

class PolarityTimeSpec extends SparkSpec {
  import PaperExample._
  import PolarityTime._

  private val arr = arrivals(graph, query)
  private val dep = departures(graph, query)

  test("A(s) = tauB - 1 by convention") { assert(arr(s) == 1) }
  test("D(t) = tauE + 1 by convention") { assert(dep(t) == 8) }

  test("Fig. 3(a): earliest arrival times of the paper example") {
    assert(arr(b) == 2)
    assert(arr(a) == 3)
    assert(arr(d) == 3) // improved from 4 via e(b,d,3), per Example 5
    assert(arr(c) == 3)
    assert(arr(f) == 4) // Example 3: A(f) = min{4, 5} = 4
    assert(arr(e) == 5)
  }

  test("A(t) stays +infinity (traversal never enters t)") { assert(arr(t) == NoArrival) }
  test("D(s) stays -infinity (traversal never enters s)") { assert(dep(s) == NoDeparture) }

  test("Fig. 3(b): latest departure times of the paper example") {
    assert(dep(b) == 6)
    assert(dep(c) == 7)
    assert(dep(d) == 2)
    assert(dep(f) == 5) // Example 3: D(f) = 5
    assert(dep(e) == 6)
  }

  test("D(a) = -infinity: a has no temporal path to t within [2,7]") {
    assert(dep(a) == NoDeparture)
  }

  test("narrower window changes polarity times") {
    val q2 = TspgQuery(s, t, 4, 7)
    val a2 = arrivals(graph, q2)
    assert(a2(b) == NoArrival) // e(s,b,2) now out of window
    assert(a2(d) == 4)         // via e(s,d,4)
  }

  test("window of a single timestamp only admits direct edges") {
    val q2 = TspgQuery(s, t, 4, 4)
    val a2 = arrivals(graph, q2)
    assert(a2(d) == 4 && a2(b) == NoArrival && a2(c) == NoArrival)
  }

  test("strict ascent: equal-timestamp edges do not chain") {
    // 0 -1-> 1 -1-> 2 : arrival at 2 must be impossible.
    val g = TemporalGraph(3, Seq(TEdge(0, 1, 1), TEdge(1, 2, 1)))
    val a = earliestArrivals(g, 0, 1, 5, avoid = -1, avoid2 = -1)._1
    assert(a(1) == 1 && a(2) == NoArrival)
  }

  test("label correction: later-found shorter-hop path with earlier arrival wins") {
    // 0 -5-> 1  and  0 -1-> 2 -2-> 1 : A(1) must end as 2.
    val g = TemporalGraph(3, Seq(TEdge(0, 1, 5), TEdge(0, 2, 1), TEdge(2, 1, 2)))
    val a = earliestArrivals(g, 0, 1, 5, avoid = -1, avoid2 = -1)._1
    assert(a(1) == 2)
  }

  test("avoid vertex blocks paths through it") {
    // 0 -1-> 1 -2-> 2 with avoid = 1: vertex 2 unreachable.
    val g = TemporalGraph(3, Seq(TEdge(0, 1, 1), TEdge(1, 2, 2)))
    assert(earliestArrivals(g, 0, 1, 5, avoid = 1, avoid2 = -1)._1(2) == NoArrival)
    assert(earliestArrivals(g, 0, 1, 5, avoid = -1, avoid2 = -1)._1(2) == 2)
  }

  test("arrival exactly at tauE is recorded but not extended") {
    val g = TemporalGraph(3, Seq(TEdge(0, 1, 5), TEdge(1, 2, 6)))
    val a = earliestArrivals(g, 0, 1, 5, avoid = -1, avoid2 = -1)._1
    assert(a(1) == 5 && a(2) == NoArrival)
  }

  test("departures mirror: D strict descent from t") {
    val g = TemporalGraph(3, Seq(TEdge(0, 1, 3), TEdge(1, 2, 3)))
    val d = latestDepartures(g, 2, 1, 5, avoid = -1, avoid2 = -1)._1
    assert(d(1) == 3 && d(0) == NoDeparture) // 3 then 3 is not strictly ascending
  }

  for (seed <- 1 to 12)
    test(s"arrivals match brute-force reference (random graph seed=$seed)") {
      val g = Fixtures.randomGraph(seed)
      Fixtures.randomQueries(g, seed, 3).foreach { q =>
        val a = arrivals(g, q)
        (0 until g.n).filter(u => u != q.s && u != q.t).foreach { u =>
          val ref = TestRef.refArrival(g, q.s, u, q.tauB, q.tauE, avoid = q.t)
          assert(ref == (if (a(u) == NoArrival) None else Some(a(u))),
            s"A($u) mismatch for $q: got ${a(u)}, ref $ref")
        }
      }
    }

  for (seed <- 1 to 12)
    test(s"departures match brute-force reference (random graph seed=$seed)") {
      val g = Fixtures.randomGraph(seed)
      Fixtures.randomQueries(g, seed + 100, 3).foreach { q =>
        val d = departures(g, q)
        (0 until g.n).filter(u => u != q.s && u != q.t).foreach { u =>
          val ref = TestRef.refDeparture(g, u, q.t, q.tauB, q.tauE, avoid = q.s)
          assert(ref == (if (d(u) == NoDeparture) None else Some(d(u))),
            s"D($u) mismatch for $q: got ${d(u)}, ref $ref")
        }
      }
    }

  // The general entries in the forms EEV uses: two avoided vertices (escalation), and
  // sub-windows ending before / starting after a seed edge (stage-3 reach-to-seed).
  private def refA(g: TemporalGraph, src: Int, u: Int, tb: Int, te: Int,
                   av: Int, av2: Int): Int =
    TestRef.allPaths(g, src, u, tb, te, avoid = av)
      .filter(p => p.nonEmpty && !p.exists(_.dst == av2)).map(_.last.ts)
      .minOption.getOrElse(NoArrival)

  private def refD(g: TemporalGraph, u: Int, dst: Int, tb: Int, te: Int,
                   av: Int, av2: Int): Int =
    TestRef.allPaths(g, u, dst, tb, te, avoid = av)
      .filter(p => p.nonEmpty && !p.exists(_.src == av2)).map(_.head.ts)
      .maxOption.getOrElse(NoDeparture)

  /** The per-seed forms of each random query: (escalation A, escalation D,
    * stage-3 D towards u over [τb, τ−1], stage-3 A from v over [τ+1, τe]), each as
    * (source or target, tauB, tauE, avoid, avoid2).
    */
  private def seedForms(g: TemporalGraph, seed: Int): Seq[(String, Int, Int, Int, Int, Int)] =
    Fixtures.randomQueries(g, seed, 3).flatMap { q =>
      g.edges.filter(e => e.ts >= q.tauB && e.ts <= q.tauE && e.src != q.t && e.dst != q.s)
        .take(6).flatMap { e =>
          Seq(("A", q.s, q.tauB, q.tauE, q.t, e.dst),
              ("D", q.t, q.tauB, q.tauE, q.s, e.src),
              ("D", e.src, q.tauB, e.ts - 1, q.t, e.dst),
              ("A", e.dst, e.ts + 1, q.tauE, q.s, e.src))
        }
    }

  private def entry(g: TemporalGraph, dir: String, x: Int, tb: Int, te: Int,
                    av: Int, av2: Int): (Array[Int], Array[TEdge]) =
    if (dir == "A") earliestArrivals(g, x, tb, te, av, av2)
    else latestDepartures(g, x, tb, te, av, av2)

  for (seed <- 1 to 8)
    test(s"two-avoid and sub-window polarity times match brute force (random graph seed=$seed)") {
      val g = Fixtures.randomGraph(seed)
      seedForms(g, seed).foreach { case (dir, x, tb, te, av, av2) =>
        val got = entry(g, dir, x, tb, te, av, av2)._1
        (0 until g.n).filter(_ != x).foreach { u =>
          val ref =
            if (u == av || u == av2) (if (dir == "A") NoArrival else NoDeparture)
            else if (dir == "A") refA(g, x, u, tb, te, av, av2)
            else refD(g, u, x, tb, te, av, av2)
          assert(got(u) == ref, s"$dir($u) from/to $x in [$tb, $te] avoiding {$av, $av2}")
        }
      }
    }

  for (seed <- 1 to 8)
    test(s"parent chains are strictly ascending simple paths realizing A and D (random graph seed=$seed)") {
      val g = Fixtures.randomGraph(seed)
      seedForms(g, seed + 50).foreach { case (dir, x, tb, te, av, av2) =>
        val (label, parent) = entry(g, dir, x, tb, te, av, av2)
        val unreached = if (dir == "A") NoArrival else NoDeparture
        (0 until g.n).filter(u => u != x && label(u) != unreached).foreach { u =>
          // Walk parents from u back to the source (A) or on to the target (D).
          val chain = Iterator.iterate(parent(u))(e =>
            if (dir == "A") (if (e.src == x) null else parent(e.src))
            else (if (e.dst == x) null else parent(e.dst))
          ).takeWhile(_ != null).take(g.n).toList
          val path = if (dir == "A") chain.reverse else chain
          val ctx  = s"$dir chain of $u from/to $x in [$tb, $te] avoiding {$av, $av2}: $path"
          assert(path.nonEmpty, ctx)
          if (dir == "A") assert(path.head.src == x && path.last.dst == u && path.last.ts == label(u), ctx)
          else assert(path.head.src == u && path.last.dst == x && path.head.ts == label(u), ctx)
          assert(path.zip(path.tail).forall { case (e1, e2) => e1.dst == e2.src && e1.ts < e2.ts }, ctx)
          assert(path.forall(e => e.ts >= tb && e.ts <= te), ctx)
          val vs = path.head.src :: path.map(_.dst)
          assert(vs.distinct == vs && !vs.contains(av) && !vs.contains(av2), ctx)
        }
      }
    }
}
