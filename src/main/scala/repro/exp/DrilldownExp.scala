package repro.exp

import repro.core.frep.{DrillStrategy, DrilldownSession, HierRelation}

/** Figure 9: drill-down optimization. Two 6-attribute hierarchies A and B;
  * three successive Reptile invocations each evaluate both candidate
  * drill-downs and commit A. Strategies: Static rebuilds every hierarchy's
  * relation (its decomposed aggregates) each time; Dynamic exploits
  * hierarchy independence (O(1) zoom updates for the non-target
  * hierarchy); Cache+Dynamic additionally reuses B's relations across
  * invocations.
  */
object DrilldownExp {

  final case class DrillRow(strategy: String, bDepth: Int, invocation: Int, evalAMs: Double, evalBMs: Double)

  /** A 6-level hierarchy: level k has leaves/branch^(5-k) values. */
  def hier(name: String, leaves: Int, branch: Int = 4): HierRelation = {
    val t = 6
    val tuples = (0 until leaves).map { leaf =>
      (0 until t).map { k =>
        val stride = math.pow(branch, (t - 1 - k).toDouble).toLong
        f"$name$k-${leaf / stride}%07d"
      }
    }
    HierRelation(name, (0 until t).map(k => s"$name$k"), tuples)
  }

  def run(bDepths: Seq[Int] = Seq(3, 4, 5), leaves: Int = 50000, invocations: Int = 3): Vector[DrillRow] = {
    val relA = hier("A", leaves)
    val relB = hier("B", leaves)
    val strategies = Seq(
      "Static" -> DrillStrategy.Static,
      "Dynamic" -> DrillStrategy.Dynamic,
      "Cache+Dynamic" -> DrillStrategy.DynamicCached,
    )
    val rows = Vector.newBuilder[DrillRow]
    for {
      (sname, strat) <- strategies
      bDepth <- bDepths
    } {
      // A is already drilled to depth 3; B to depth bDepth.
      val session = new DrilldownSession(Vector(relA, relB), strat, Map("A" -> 3, "B" -> bDepth))
      for (inv <- 1 to invocations) {
        val (_, aMs) = Timing.ms(session.evaluate("A"))
        val (_, bMs) = Timing.ms(session.evaluate("B"))
        session.commit("A")
        rows += DrillRow(sname, bDepth, inv, aMs, bMs)
      }
    }
    rows.result()
  }

  def printRows(rows: Seq[DrillRow]): Unit = {
    Timing.printTable("Figure 9: drill-down optimization",
      Seq("strategy", "bDepth", "invocation", "evalA_ms", "evalB_ms", "total_ms"),
      rows.map(r => Seq(r.strategy, r.bDepth.toString, r.invocation.toString,
        Timing.f2(r.evalAMs), Timing.f2(r.evalBMs), Timing.f2(r.evalAMs + r.evalBMs))))
    val totals = rows.groupBy(_.strategy).map { case (s, rs) => s -> rs.map(r => r.evalAMs + r.evalBMs).sum }
    Timing.printTable("Figure 9 totals (3 invocations, all B depths)",
      Seq("strategy", "total_ms"),
      totals.toSeq.sortBy(_._2).map { case (s, t) => Seq(s, Timing.f1(t)) })
  }
}
