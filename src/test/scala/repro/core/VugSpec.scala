package repro.core

import repro.SparkSpec

class VugSpec extends SparkSpec {
  import PaperExample._

  test("end-to-end on the paper example: tspG, Gq and Gt all match the figures") {
    val r = Vug.run(graph, query)
    assert(r.tspg.edges == tspgEdges)
    assert(r.tspg.vertices == tspgVertices)
    assert(r.gq.edgeSet == gqEdges)
    assert(r.gt.edgeSet == gtEdges)
  }

  test("phase timings are populated and non-negative") {
    val tm = Vug.run(graph, query).timings
    assert(tm.quickNanos >= 0 && tm.tightNanos >= 0 && tm.eevNanos >= 0)
    assert(tm.totalNanos == tm.quickNanos + tm.tightNanos + tm.eevNanos)
  }

  test("VugTimings addition") {
    val a = VugTimings(1, 2, 3)
    assert(a + VugTimings.zero == a && (a + a) == VugTimings(2, 4, 6))
  }

  test("unreachable target yields the empty subgraph") {
    assert(Vug.tspg(graph, TspgQuery(a, s, 2, 7)) == Subgraph.empty)
  }

  test("a query vertex outside the graph is rejected with its id and n") {
    val e1 = intercept[IllegalArgumentException](Vug.run(graph, TspgQuery(s, 9, 2, 7)))
    assert(e1.getMessage.contains("vertex 9") && e1.getMessage.contains("[0, 8)"))
    val e2 = intercept[IllegalArgumentException](Vug.run(graph, TspgQuery(-1, t, 2, 7)))
    assert(e2.getMessage.contains("vertex -1"))
  }

  test("query window outside the timestamp range yields the empty subgraph") {
    assert(Vug.tspg(graph, TspgQuery(s, t, 50, 60)) == Subgraph.empty)
  }

  test("reversed-role query (t to s) is empty on the paper example") {
    assert(Vug.tspg(graph, TspgQuery(t, s, 2, 7)) == Subgraph.empty)
  }

  test("narrower window [2,6] removes e(c,t,7)'s path") {
    val r = Vug.tspg(graph, TspgQuery(s, t, 2, 6))
    assert(r.edges == Set(TEdge(s, b, 2), TEdge(b, t, 6)))
  }

  test("single-timestamp window admits only a direct edge") {
    val g = TemporalGraph(3, Seq(TEdge(0, 2, 4), TEdge(0, 1, 4), TEdge(1, 2, 4)))
    assert(Vug.tspg(g, TspgQuery(0, 2, 4, 4)).edges == Set(TEdge(0, 2, 4)))
  }

  test("VUG equals all three EP baselines on the paper example") {
    val v = Vug.tspg(graph, query)
    assert(v == Baselines.epDtTsg(graph, query).subgraph)
    assert(v == Baselines.epEsTsg(graph, query).subgraph)
    assert(v == Baselines.epTgTsg(graph, query).subgraph)
  }

  // Broad cross-validation: VUG ≡ brute force on many random graphs and shapes.
  for (seed <- 1 to 40)
    test(s"VUG equals brute force (random graph seed=$seed)") {
      val n = 6 + seed % 8
      val m = 20 + (seed * 3) % 30
      val g = Fixtures.randomGraph(seed * 1009L, n = n, m = m, maxTs = 4 + seed % 6)
      Fixtures.randomQueries(g, seed, 4, maxTs = 4 + seed % 6).foreach { q =>
        val got = Vug.tspg(g, q)
        val ref = TestRef.tspg(g, q)
        assert(got.edges == ref.edges, s"edges mismatch for $q on seed=$seed")
        assert(got.vertices == ref.vertices, s"vertices mismatch for $q on seed=$seed")
      }
    }

  // Denser graphs with parallel edges stress Lemma 11 batching.
  for (seed <- 1 to 10)
    test(s"VUG equals brute force on dense multi-edge graphs (seed=$seed)") {
      val g = Fixtures.randomGraph(seed * 31L, n = 6, m = 50, maxTs = 6)
      Fixtures.randomQueries(g, seed + 41, 4, maxTs = 6).foreach { q =>
        assert(Vug.tspg(g, q) == TestRef.tspg(g, q), s"mismatch for $q")
      }
    }
}
