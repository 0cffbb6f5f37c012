package repro.bench

import repro.SparkSpec
import repro.exp._

/** Figures 7, 15, 9: driver-side factorised matrix operation and
  * drill-down maintenance benchmarks (no Spark jobs involved).
  */
class MatrixOpsBench extends SparkSpec {

  test("Figure 7: matrix operations, factorized vs Lapack-style dense") {
    // warm up the JIT before timing
    MatrixOpsExp.run(Seq(3))
    val rows = MatrixOpsExp.run(1 to 6)
    MatrixOpsExp.printRows(
      "Figure 7: matrix ops (paper: materialize/gram exponential dense vs linear factorized; " +
        "left/right mult both exponential, factorized ~1.6-5x faster at d=7)", rows)
    val d6 = rows.filter(_.d == 6).map(r => r.op -> r).toMap
    assert(d6("materialize").speedup > 3, s"materialize speedup ${d6("materialize").speedup}")
    assert(d6("gram").speedup > 10, s"gram speedup ${d6("gram").speedup}")
    // growth shape: factorized gram stays ~flat in d while dense explodes
    val gramFact = rows.filter(_.op == "gram").map(_.factMs)
    val gramDense = rows.filter(_.op == "gram").map(_.naiveMs)
    assert(gramDense.last / math.max(gramDense.head, 0.01) >
      gramFact.last / math.max(gramFact.head, 0.01),
      "dense gram should grow much faster with d than factorized")
  }

  test("Figure 15: per-cluster matrix operations") {
    MatrixOpsExp.runClusterOps(Seq(3))
    val rows = MatrixOpsExp.runClusterOps(1 to 6)
    MatrixOpsExp.printRows(
      "Figure 15: per-cluster ops (paper: 3x gram, 5.8x left, 6.9x right at d=7)", rows)
    val d6 = rows.filter(_.d == 6).map(r => r.op -> r).toMap
    assert(d6("clusterGram").speedup > 1.5, s"cluster gram speedup ${d6("clusterGram").speedup}")
  }

  test("Figure 9: drill-down optimization strategies") {
    DrilldownExp.run(bDepths = Seq(3), leaves = 10000) // JIT warmup
    val rows = DrilldownExp.run(bDepths = Seq(3, 4, 5), leaves = 100000)
    DrilldownExp.printRows(rows)
    def total(s: String): Double = rows.filter(_.strategy == s).map(r => r.evalAMs + r.evalBMs).sum
    assert(total("Dynamic") < total("Static"),
      s"Dynamic ${total("Dynamic")} should beat Static ${total("Static")} (paper: >1.2x)")
    assert(total("Cache+Dynamic") <= total("Dynamic") * 1.05,
      "caching should not be slower than plain dynamic")
    // cached strategy eliminates the repeated B evaluations (2ndB, 3rdB)
    val cachedLateB = rows.filter(r => r.strategy == "Cache+Dynamic" && r.invocation > 1).map(_.evalBMs).sum
    val staticLateB = rows.filter(r => r.strategy == "Static" && r.invocation > 1).map(_.evalBMs).sum
    assert(cachedLateB < staticLateB / 2, s"cached B $cachedLateB vs static B $staticLateB")
  }
}

/** Figure 8: Spark multi-query execution of the decomposed aggregates. */
class MultiQueryBench extends SparkSpec {

  test("Figure 8: serial vs work-shared aggregation-join plans") {
    spark.conf.set("spark.sql.shuffle.partitions", "32")
    MultiQueryExp.run(spark, t = 3, leafRowsList = Seq(200000)) // warmup
    val rows = MultiQueryExp.run(spark, t = 3, leafRowsList = Seq(500000, 1000000, 2000000))
    MultiQueryExp.printRows(rows)
    val big = rows.last
    assert(big.speedup > 1.2,
      s"work sharing should win at ${big.leafRows} rows (speedup ${big.speedup})")
  }
}

/** Figure 10: end-to-end runtimes on Absentee-like and COMPAS-like data. */
class EndToEndBench extends SparkSpec {

  test("Figure 10: Reptile vs Matlab-style dense pipeline") {
    spark.conf.set("spark.sql.shuffle.partitions", "16")
    // JIT warmup on a small cut
    EndToEndExp.run(spark, EndToEndExp.absenteeSetup.copy(
      fact = s => repro.synth.DatasetSynth.absenteeLike(s, rows = 20000)), emIters = 5)
    val absentee = EndToEndExp.run(spark, EndToEndExp.absenteeSetup)
    val compas = EndToEndExp.run(spark, EndToEndExp.compasSetup)
    EndToEndExp.printRows(absentee)
    EndToEndExp.printRows(compas)
    Seq("absentee" -> absentee, "compas" -> compas).foreach { case (name, rows) =>
      val r = rows.map(_.reptileMs).sum
      val m = rows.map(_.matlabMs).sum
      // The paper reports >6x vs Matlab. Our "Matlab" stand-in is a
      // JIT-compiled dense pipeline, a far stronger baseline than
      // interpreted Matlab per-cluster slicing. Its EM inverts one matrix
      // per cluster where the factorised E-step inverts one per parent
      // block (EXPERIMENTS.md, Figure 10, records the measured ratio); the
      // gate asks only that Reptile not lose.
      println(f"$name: reptile $r%.1f ms vs dense-baseline $m%.1f ms (ratio ${m / r}%.2fx)")
      assert(r <= m * 1.15, s"$name: reptile $r ms should not lose to the dense pipeline $m ms")
    }
  }
}

/** Figure 16: AIC model comparison. */
class AicBench extends SparkSpec {

  test("Figure 16: linear vs multi-level, with and without auxiliary features") {
    val rows = AicExp.run(spark)
    AicExp.printRows(rows)
    Seq("FIST", "Vote").foreach { ds =>
      val sub = rows.filter(_.dataset == ds)
      val best = sub.minBy(_.aic)
      assert(best.model == "Multi-level-f", s"$ds best model was ${best.model}")
      val lin = sub.find(_.model == "Linear").get.aic
      val mlf = sub.find(_.model == "Multi-level-f").get.aic
      assert(lin - mlf > 10, s"$ds: Multi-level-f should be substantially better (delta ${lin - mlf})")
    }
  }
}
