package repro.core

import repro.SparkSpec

class EevSpec extends SparkSpec {
  import PaperExample._

  private val gq = QuickUbg.compute(graph, query)
  private val gt = TightUbg.compute(gq, query)

  test("Fig. 1(c): EEV on Gt yields the exact tspG of the paper example") {
    val r = Eev(gt, query)
    assert(r.edges == tspgEdges)
    assert(r.vertices == tspgVertices)
  }

  test("the Lemma 3 counterexample e(c,f,4) is rejected by verification") {
    assert(!Eev(gt, query).edges.contains(TEdge(c, f, 4)))
  }

  test("biDirSearch fails for e(c,f,4): f has no onward edge in Gt") {
    assert(Eev.biDirSearch(gt, query, TEdge(c, f, 4)).isEmpty)
  }

  test("biDirSearch finds a full path through an interior edge") {
    // In Gq (looser than Gt), e(b,c,3) sits on <(s,b,2),(b,c,3),(c,t,7)>.
    val path = Eev.biDirSearch(gq, query, TEdge(b, c, 3))
    assert(path.isDefined)
    val p = path.get
    assert(p.head.src == s && p.last.dst == t)
    assert(p.contains(TEdge(b, c, 3)))
    assert(p.map(_.ts) == p.map(_.ts).sorted && p.map(_.ts).distinct == p.map(_.ts))
    // simplicity: no repeated vertices
    val vs = p.head.src +: p.map(_.dst)
    assert(vs.distinct == vs)
  }

  test("biDirSearch respects the seed edge's timestamp on both sides") {
    val path = Eev.biDirSearch(gq, query, TEdge(f, b, 5))
    // s⇝f must arrive before 5 and b⇝t depart after 5 without reusing f's path
    // vertices; <(s,b,2),(b,c,3),(c,f,4)> uses b, so no simple completion exists.
    assert(path.isEmpty)
  }

  test("EEV's Lemma 10 shortcut is only sound on Gt, not on Gq") {
    // On Gq, e(f,b,5) has the v→t witness e(b,t,6), so the Lemma 10 pre-verification
    // would admit it — but every s⇝f prefix passes through b, so it is not in tspG.
    // This documents why Algorithm 1 runs TightUBG before EEV.
    assert(Eev(gq, query).edges.contains(TEdge(f, b, 5)))
    assert(!tspgEdges.contains(TEdge(f, b, 5)))
  }

  test("EEV of an empty graph is empty") {
    assert(Eev(TemporalGraph(8, Seq.empty), query) == Subgraph.empty)
  }

  test("direct s->t edges are pre-verified (Lemma 2)") {
    val g = TemporalGraph(2, Seq(TEdge(0, 1, 3)))
    val q = TspgQuery(0, 1, 1, 5)
    assert(Eev(g, q).edges == Set(TEdge(0, 1, 3)))
  }

  test("Lemma 10 pre-verification adds second-hop edges without search") {
    // s -> u at 1, u -> v at 2, v -> t at 3: edge (u,v,2) satisfies both conditions.
    val g = TemporalGraph(4, Seq(TEdge(0, 1, 1), TEdge(1, 2, 2), TEdge(2, 3, 3)))
    val q = TspgQuery(0, 3, 1, 3)
    assert(Eev(g, q).edges.size == 3)
  }

  test("Lemma 11 batch confirmation covers parallel interior edges") {
    // Path s->1->2->3->4->t with interior parallel edges 2->3 at ts 3 and 4, both
    // inside (ts(1->2), ts(3->4)) = (2, 5): one search must confirm both.
    val es = Seq(TEdge(0, 1, 1), TEdge(1, 2, 2), TEdge(2, 3, 3), TEdge(2, 3, 4),
      TEdge(3, 4, 5), TEdge(4, 5, 6))
    val g = TemporalGraph(6, Seq(es: _*))
    val q = TspgQuery(0, 5, 1, 6)
    val r = Eev(g, q)
    assert(r.edges.contains(TEdge(2, 3, 3)) && r.edges.contains(TEdge(2, 3, 4)))
    assert(r.edges.size == 6)
  }

  test("an out-of-order parallel edge is excluded despite the batch") {
    // Same chain but the parallel 2->3 edge at ts 6 cannot precede 3->4 at ts 5.
    val es = Seq(TEdge(0, 1, 1), TEdge(1, 2, 2), TEdge(2, 3, 3), TEdge(2, 3, 6),
      TEdge(3, 4, 5), TEdge(4, 5, 7))
    val g = TemporalGraph(6, Seq(es: _*))
    val q = TspgQuery(0, 5, 1, 7)
    val r = Eev(g, q)
    assert(r.edges.contains(TEdge(2, 3, 3)) && !r.edges.contains(TEdge(2, 3, 6)))
  }

  test("search-direction prioritization: both orders produce correct results") {
    // Seeds near tauB trigger forward-first; near tauE backward-first. Both must
    // verify correctly on a diamond.
    val es = Seq(TEdge(0, 1, 1), TEdge(1, 2, 2), TEdge(2, 3, 8),
      TEdge(0, 2, 7), TEdge(1, 3, 9))
    val g = TemporalGraph(4, Seq(es: _*))
    val q = TspgQuery(0, 3, 1, 9)
    assert(Eev(g, q).edges == TestRef.tspg(g, q).edges)
  }

  for (seed <- 1 to 25)
    test(s"EEV(Gt) equals the brute-force tspG (random graph seed=$seed)") {
      val g = Fixtures.randomGraph(seed, n = 11, m = 40)
      Fixtures.randomQueries(g, seed + 17, 3).foreach { q =>
        val gtr = TightUbg.compute(QuickUbg.compute(g, q), q)
        val got = Eev(gtr, q)
        val ref = TestRef.tspg(g, q)
        assert(got.edges == ref.edges, s"edge mismatch for $q")
        assert(got.vertices == ref.vertices, s"vertex mismatch for $q")
      }
    }

  // Force the budget-escalation path (per-seed avoidance gates) on every search and
  // re-validate exactness, including on denser graphs where cross-conflict aborts and
  // escalations actually fire.
  for (seed <- 1 to 15)
    test(s"escalated search remains exact (random graph seed=$seed, budget=1)") {
      val saved = Eev.searchBudget
      Eev.searchBudget = 1L
      try {
        val g = Fixtures.randomGraph(seed * 53L, n = 12, m = 70, maxTs = 8)
        Fixtures.randomQueries(g, seed + 31, 3, maxTs = 8).foreach { q =>
          val gtr = TightUbg.compute(QuickUbg.compute(g, q), q)
          assert(Eev(gtr, q) == TestRef.tspg(g, q), s"mismatch for $q")
        }
      } finally Eev.searchBudget = saved
    }

  for (seed <- 1 to 10)
    test(s"EEV exact on dense conflict-heavy graphs (seed=$seed)") {
      val g = Fixtures.randomGraph(seed * 101L, n = 14, m = 90, maxTs = 9)
      Fixtures.randomQueries(g, seed + 47, 2, maxTs = 9).foreach { q =>
        val gtr = TightUbg.compute(QuickUbg.compute(g, q), q)
        assert(Eev(gtr, q) == TestRef.tspg(g, q), s"mismatch for $q")
      }
    }

  /** `p` is a strictly ascending temporal simple path `s ⇝ t` within the window
    * through `seed`.
    */
  private def assertWitness(p: IndexedSeq[TEdge], q: TspgQuery, seed: TEdge): Unit = {
    assert(p.head.src == q.s && p.last.dst == q.t, s"$p does not run ${q.s} ~> ${q.t}")
    assert(p.contains(seed), s"$p misses $seed")
    assert(p.zip(p.tail).forall { case (e1, e2) => e1.dst == e2.src && e1.ts < e2.ts },
      s"$p is not a strictly ascending path")
    assert(p.forall(e => e.ts >= q.tauB && e.ts <= q.tauE), s"$p leaves the window")
    val vs = p.head.src +: p.map(_.dst)
    assert(vs.distinct == vs, s"$p is not simple")
  }

  // Stage 3 (the search anchored at s and t) is exact on its own: called directly on
  // every Gt edge, it finds a witness exactly for the tspG edges. Its gates confine
  // it to the window, so the same holds searching the whole graph from every window
  // edge (more seeds, and more edges that would break strict ascent).
  for (seed <- 1 to 15)
    test(s"anchored search finds a witness iff the seed is in tspG (random graph seed=$seed)") {
      val sparse = Fixtures.randomGraph(seed, n = 11, m = 40)
      val dense  = Fixtures.randomGraph(seed * 53L, n = 12, m = 70, maxTs = 8)
      (Fixtures.randomQueries(sparse, seed + 17, 3).map(sparse -> _) ++
        Fixtures.randomQueries(dense, seed + 31, 3, maxTs = 8).map(dense -> _)).foreach {
        case (g, q) =>
          val gtr    = TightUbg.compute(QuickUbg.compute(g, q), q)
          val ref    = TestRef.tspg(g, q).edges
          val window = g.filterEdges(e => e.ts >= q.tauB && e.ts <= q.tauE && e.src != q.t && e.dst != q.s)
          Seq(gtr -> gtr.edges, g -> window.edges).foreach { case (searched, seeds) =>
            seeds.foreach { e =>
              val found = Eev.anchoredSearch(searched, q, e)
              assert(found.isDefined == ref.contains(e), s"$e for $q")
              found.foreach(assertWitness(_, q, e))
            }
          }
      }
    }
}
