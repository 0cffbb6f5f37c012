package repro.core

import repro.SparkSpec
import repro.core.frep._

class DrilldownSessionSpec extends SparkSpec {

  private def hier(name: String, leaves: Int, depth: Int = 4, branch: Int = 3): HierRelation = {
    val tuples = (0 until leaves).map { leaf =>
      (0 until depth).map { k =>
        val stride = math.pow(branch, (depth - 1 - k).toDouble).toLong
        f"$name$k-${leaf / stride}%05d"
      }
    }
    HierRelation(name, (0 until depth).map(k => s"$name$k"), tuples)
  }

  private val relA = hier("A", 200)
  private val relB = hier("B", 150)

  test("all strategies produce identical aggregates") {
    val results = Seq(DrillStrategy.Static, DrillStrategy.Dynamic, DrillStrategy.DynamicCached).map { s =>
      val session = new DrilldownSession(Vector(relA, relB), s, Map("A" -> 2, "B" -> 2))
      // HierRelation has no structural equality: compare what defines one.
      def contents(r: (Map[String, HierRelation], Map[String, Double])) =
        (r._1.map { case (d, rel) => d -> (rel.attrs, rel.rows, rel.total) }, r._2)
      val r1 = contents(session.evaluate("A"))
      val rB = contents(session.evaluate("B"))
      session.commit("A")
      val r2 = contents(session.evaluate("A"))
      (r1, rB, r2)
    }
    results.sliding(2).foreach {
      case Seq(x, y) => assert(x == y)
      case _         =>
    }
  }

  test("zoom scalars are the product of the other hierarchies' totals") {
    val session = new DrilldownSession(Vector(relA, relB), DrillStrategy.Dynamic, Map("A" -> 2, "B" -> 3))
    val (rels, zooms) = session.evaluate("A")
    assert(rels("A").depth == 3 && rels("B").depth == 3)
    assert(zooms("A") == rels("B").total.toDouble)
    assert(zooms("B") == rels("A").total.toDouble)
    // global COUNT of a B value = its run length * zoom
    val raw = rels("B").segments(0).head.len
    assert(raw * zooms("B") == raw * rels("A").total)
  }

  test("dynamic avoids recomputing the non-target hierarchy") {
    val dyn = new DrilldownSession(Vector(relA, relB), DrillStrategy.Dynamic, Map("A" -> 2, "B" -> 2))
    dyn.evaluate("A"); dyn.evaluate("B"); dyn.commit("A")
    val afterFirst = dyn.recomputations
    dyn.evaluate("A") // B reused from `current`
    assert(dyn.recomputations == afterFirst + 1)

    val static = new DrilldownSession(Vector(relA, relB), DrillStrategy.Static, Map("A" -> 2, "B" -> 2))
    static.evaluate("A"); static.evaluate("B"); static.commit("A")
    val afterFirstS = static.recomputations
    static.evaluate("A") // recomputes both A and B
    assert(static.recomputations == afterFirstS + 2)
  }

  test("cache eliminates repeat target evaluations across invocations") {
    val cached = new DrilldownSession(Vector(relA, relB), DrillStrategy.DynamicCached, Map("A" -> 2, "B" -> 2))
    cached.evaluate("B")
    val after1 = cached.recomputations
    cached.commit("A") // commit A; B stays at depth 2
    cached.evaluate("B") // B@3 cached from the first evaluation
    assert(cached.recomputations == after1 + 1) // only commit(A)'s recompute
  }

  test("commit advances depth") {
    val s = new DrilldownSession(Vector(relA, relB), DrillStrategy.Static, Map("A" -> 1))
    assert(s.depthOf("A") == 1 && s.depthOf("B") == 0)
    s.commit("A")
    assert(s.depthOf("A") == 2)
    s.commit("B")
    assert(s.depthOf("B") == 1)
  }
}
