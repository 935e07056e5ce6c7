package repro.core

import repro.SparkSpec

class TemporalGraphSpec extends SparkSpec {
  import PaperExample._

  test("edge count matches the paper example") { assert(graph.m == 14) }

  test("vertex universe size") { assert(graph.n == 8) }

  test("vertices is the set of edge endpoints") {
    assert(graph.vertices == Set(s, a, b, c, d, e, f, t))
  }

  test("self-loops are dropped at construction") {
    val g = TemporalGraph(3, Seq(TEdge(0, 0, 1), TEdge(0, 1, 2)))
    assert(g.m == 1 && g.edgeSet == Set(TEdge(0, 1, 2)))
  }

  test("duplicate edges are de-duplicated (set semantics)") {
    val g = TemporalGraph(3, Seq(TEdge(0, 1, 2), TEdge(0, 1, 2), TEdge(0, 1, 3)))
    assert(g.m == 2)
  }

  test("parallel edges with distinct timestamps are kept") {
    val g = TemporalGraph(3, Seq(TEdge(0, 1, 1), TEdge(0, 1, 2), TEdge(0, 1, 3)))
    assert(g.m == 3)
  }

  test("global edge array is sorted non-descending by timestamp") {
    assert(graph.edges.map(_.ts).toSeq == graph.edges.map(_.ts).sorted.toSeq)
  }

  test("out-adjacency is timestamp-ascending") {
    (0 until graph.n).foreach { u =>
      val ts = graph.outEdges(u).map(_.ts).toSeq
      assert(ts == ts.sorted, s"out($u)")
    }
  }

  test("in-adjacency is timestamp-ascending") {
    (0 until graph.n).foreach { u =>
      val ts = graph.inEdges(u).map(_.ts).toSeq
      assert(ts == ts.sorted, s"in($u)")
    }
  }

  test("out-neighbors of s match Example 5") {
    assert(graph.outEdges(s).toSet == Set(TEdge(s, b, 2), TEdge(s, a, 3), TEdge(s, d, 4)))
  }

  test("adjacency partitions the edge set") {
    val fromOut = (0 until graph.n).flatMap(graph.outEdges).toSet
    val fromIn  = (0 until graph.n).flatMap(graph.inEdges).toSet
    assert(fromOut == graph.edgeSet && fromIn == graph.edgeSet)
  }

  test("timestamps are distinct and ascending") {
    assert(graph.timestamps.toSeq == Seq(2, 3, 4, 5, 6, 7))
  }

  test("maxDegree on the paper example") {
    // b has out-degree 4: (b,d,3), (b,c,3), (b,f,5), (b,t,6).
    assert(graph.maxDegree == 4)
  }

  test("filterEdges keeps the vertex universe") {
    val g2 = graph.filterEdges(_.ts >= 5)
    assert(g2.n == graph.n && g2.edges.forall(_.ts >= 5) && g2.m == 7)
  }

  test("ofEdges infers the universe size") {
    val g = TemporalGraph.ofEdges(Seq(TEdge(3, 9, 1)))
    assert(g.n == 10)
  }

  test("ofEdges on empty input") {
    val g = TemporalGraph.ofEdges(Seq.empty)
    assert(g.n == 0 && g.m == 0 && g.vertices.isEmpty)
  }

  test("out-of-universe edge is rejected") {
    intercept[IllegalArgumentException](TemporalGraph(2, Seq(TEdge(0, 2, 1))))
  }

  test("Subgraph.ofEdges induces the endpoint set") {
    val sg = Subgraph.ofEdges(Seq(TEdge(1, 2, 3), TEdge(2, 4, 5)))
    assert(sg.vertices == Set(1, 2, 4) && sg.edgeCount == 2 && sg.vertexCount == 3)
  }

  test("Subgraph.empty") {
    assert(Subgraph.empty.isEmpty && Subgraph.empty.vertexCount == 0)
  }

  test("TspgQuery rejects s == t and empty intervals") {
    intercept[IllegalArgumentException](TspgQuery(1, 1, 0, 5))
    intercept[IllegalArgumentException](TspgQuery(0, 1, 5, 4))
  }

  test("TspgQuery rejects intervals whose tauB - 1 or tauE + 1 would overflow") {
    intercept[IllegalArgumentException](TspgQuery(0, 1, Int.MinValue, 5))
    intercept[IllegalArgumentException](TspgQuery(0, 1, 5, Int.MaxValue))
    assert(TspgQuery(0, 1, Int.MinValue + 1, Int.MaxValue - 1).tauE == Int.MaxValue - 1)
  }

  test("TspgQuery theta is the interval span") {
    assert(TspgQuery(0, 1, 2, 7).theta == 6 && TspgQuery(0, 1, 3, 3).theta == 1)
  }
}
