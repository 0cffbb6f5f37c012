package repro.exp

import repro.SparkSpec
import repro.synth.CovidSynth

/** Small-scale integration runs of every experiment harness. The bench
  * suites (bench/) run the full-size configurations.
  */
class ExpSmokeSpec extends SparkSpec {

  override def beforeAll(): Unit = {
    super.beforeAll()
    spark.conf.set("spark.sql.shuffle.partitions", "8")
  }

  test("Figure 11 harness: Reptile beats Sensitivity/Support at rho=1") {
    val rows = AccuracyExp.runFig11(spark, trials = 4, rhos = Seq(1.0), nGroups = 40, seed = 500)
    assert(rows.nonEmpty)
    val byApproach = rows.groupBy(_.approach).map { case (a, rs) => a -> rs.map(_.accuracy).sum / rs.size }
    assert(byApproach("Reptile") > 0.7, s"Reptile accuracy ${byApproach("Reptile")}")
    assert(byApproach("Reptile") > byApproach("Sensitivity"))
    assert(byApproach("Reptile") > byApproach("Support"))
  }

  test("Figure 12 harness: Reptile uses the complaint direction") {
    val rows = AccuracyExp.runFig12(spark, trials = 4, rhos = Seq(1.0), nGroups = 40, seed = 600)
    val byApproach = rows.groupBy(_.approach).map { case (a, rs) => a -> rs.map(_.accuracy).sum / rs.size }
    assert(byApproach("Reptile") >= byApproach("Outlier") - 0.1,
      s"reptile=${byApproach("Reptile")} outlier=${byApproach("Outlier")}")
    assert(byApproach("Reptile") > 0.6)
  }

  test("COVID harness: a sharp US error is detected, baselines miss it") {
    val issue = CovidSynth.usIssues.find(_.id == "3572").get // Texas missing reports
    val r = CovidExp.runIssue(spark, issue)
    assert(r.reptile, "Reptile should detect the Texas missing-report issue")
    assert(!r.sensitivity && !r.support, "baselines pick extreme-mass states, not Texas")
  }

  test("COVID harness: a prevalent error is not detected (by design)") {
    val issue = CovidSynth.usIssues.find(_.id == "3476").get // Utah prevalent missing source
    val r = CovidExp.runIssue(spark, issue)
    assert(!r.reptile, "prevalent errors are absorbed by the model and should be missed")
  }

  test("COVID harness: global two-step drill-down finds the country") {
    val issue = CovidSynth.globalIssues.find(_.id == "3567").get // India missing reports
    val r = CovidExp.runIssue(spark, issue)
    assert(r.reptile)
  }

  test("Figure 7 harness: factorized ops match and beat dense at d=3,4") {
    val rows = MatrixOpsExp.run(Seq(3, 4))
    assert(rows.size == 8)
    // left/right multiplication stay O(n) (the paper's point too); only
    // materialization and gram collapse to O(w) — assert those.
    val d4 = rows.filter(r => r.d == 4 && Set("materialize", "gram")(r.op))
    d4.foreach(r => assert(r.factMs < r.naiveMs, s"${r.op}: fact ${r.factMs} vs naive ${r.naiveMs}"))
  }

  test("Figure 15 harness: cluster op rows are produced") {
    val rows = MatrixOpsExp.runClusterOps(Seq(2, 3))
    assert(rows.size == 6)
    rows.foreach(r => assert(r.factMs >= 0))
  }

  test("Figure 8 harness: both plans run and agree at smoke scale") {
    // At small inputs Spark's fixed per-job overhead dominates and the
    // shared plan's persist bookkeeping can outweigh the join savings; the
    // bench runs at >= 1M leaf rows where the work-sharing wins. Here we
    // only require the plans to execute and stay in the same ballpark.
    val rows = MultiQueryExp.run(spark, t = 3, leafRowsList = Seq(150000))
    assert(rows.size == 1)
    assert(rows.head.sharedMs < rows.head.serialMs * 2.5)
  }

  test("Figure 9 harness: cached dynamic eliminates repeat B evaluations") {
    val rows = DrilldownExp.run(bDepths = Seq(3), leaves = 5000)
    val cached = rows.filter(r => r.strategy == "Cache+Dynamic" && r.invocation > 1)
    val static2 = rows.filter(r => r.strategy == "Static" && r.invocation > 1)
    assert(cached.map(_.evalBMs).sum < static2.map(_.evalBMs).sum,
      "cached B evaluations should be cheaper than static recomputation")
  }

  test("Figure 10 harness: factorized training does not lose to materialize-then-train") {
    val mini = EndToEndExp.absenteeSetup.copy(
      fact = s => repro.synth.DatasetSynth.absenteeLike(s, rows = 30000))
    val rows = EndToEndExp.run(spark, mini, emIters = 10)
    assert(rows.size == 4)
    val rSum = rows.map(_.reptileMs).sum
    val mSum = rows.map(_.matlabMs).sum
    // The factorised E-step inverts one matrix per parent block and the
    // dense one per cluster, so Reptile should win (see EXPERIMENTS.md,
    // Figure 10, for the measured ratio); the gate asks only that it not lose.
    assert(rSum <= mSum * 1.25, s"reptile $rSum ms should not lose to matlab $mSum ms")
  }

  test("Figure 16 harness: multi-level with aux has the best AIC on FIST-like data") {
    val rows = AicExp.run(spark, emIters = 8)
    assert(rows.size == 8)
    val fist = rows.filter(_.dataset == "FIST")
    val best = fist.minBy(_.aic)
    assert(best.model.startsWith("Multi-level"), s"best FIST model was ${best.model}")
    val vote = rows.filter(_.dataset == "Vote")
    val auxGain = vote.find(_.model == "Linear").get.aic - vote.find(_.model == "Linear-f").get.aic
    assert(auxGain > 10, s"2016 vote share should be decisively predictive (gain $auxGain)")
  }
}
