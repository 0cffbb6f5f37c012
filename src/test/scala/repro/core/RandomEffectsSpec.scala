package repro.core

import repro.SparkSpec
import repro.core.fmatrix.{FactorizedMatrix, FeatureColumn}
import repro.core.frep.HierRelation
import repro.core.linalg.Mat
import repro.core.model._
import repro.core.reptile._
import scala.util.Random

/** The tunable random-effect matrix (Section 3.3.4) and the supporting
  * allocation-free elimination kernel.
  */
class RandomEffectsSpec extends SparkSpec {
  import spark.implicits._

  /** Four parent blocks (districts); `fv` (column 2) varies inside a
    * cluster. `collinear` adds `fv2 = -fv`, a second varying column.
    */
  private def fixture(seed: Long, collinear: Boolean = false) = {
    val rng = new Random(seed)
    val time = HierRelation("time", Seq("t"), (0 until 6).map(t => Seq(f"t$t%02d")))
    val geo = HierRelation("geo", Seq("d", "v"),
      for { d <- 0 until 4; v <- 0 until 6 } yield Seq(s"d$d", s"d$d-v$v"))
    val fmap = scala.collection.mutable.HashMap.empty[String, Double]
    def feat(v: String): Double = fmap.getOrElseUpdate(v, rng.nextGaussian())
    val extra = if (collinear) Vector(FeatureColumn("fv2", 1, 1, v => -feat(v))) else Vector.empty
    new FactorizedMatrix(Vector(time, geo), Vector(
      FeatureColumn.Intercept,
      FeatureColumn("ft", 0, 0, feat),
      FeatureColumn("fv", 1, 1, feat)) ++ extra)
  }

  test("reCols = all columns reproduces the default fit") {
    val fm = fixture(1)
    val rng = new Random(2)
    val y = Array.fill(fm.n)(rng.nextDouble() * 5)
    val bk = new FactorizedBackend(fm)
    val full = MultiLevelEM.fit(bk, y, iters = 6)
    val explicit = MultiLevelEM.fit(bk, y, iters = 6, reCols = Some(Array.range(0, fm.m)))
    full.beta.zip(explicit.beta).foreach { case (a, b) => assert(a == b) }
    assert(full.sigma2 == explicit.sigma2)
  }

  test("random intercepts absorb cluster-level shifts") {
    val fm = fixture(3)
    val rng = new Random(4)
    val y = new Array[Double](fm.n)
    fm.clusterRanges.foreach { case (s, l) =>
      val shift = rng.nextGaussian() * 3.0
      (s until s + l).foreach(i => y(i) = 1.0 + shift + rng.nextGaussian() * 0.05)
    }
    val bk = new FactorizedBackend(fm)
    val fit = MultiLevelEM.fit(bk, y, iters = 12, reCols = Some(Array(0)))
    val pred = MultiLevelEM.predict(bk, fit)
    val rmse = math.sqrt(pred.zip(y).map { case (p, o) => (p - o) * (p - o) }.sum / y.length)
    val ols = LinearModel.predict(bk, LinearModel.fit(bk, y))
    val olsRmse = math.sqrt(ols.zip(y).map { case (p, o) => (p - o) * (p - o) }.sum / y.length)
    assert(rmse < olsRmse / 4, s"random intercept rmse $rmse vs OLS $olsRmse")
  }

  test("intercept-only fits agree between factorized and dense backends") {
    val fm = fixture(5)
    val rng = new Random(6)
    val y = Array.fill(fm.n)(rng.nextDouble())
    val f1 = MultiLevelEM.fit(new FactorizedBackend(fm), y, 5, reCols = Some(Array(0)))
    val f2 = MultiLevelEM.fit(new DenseBackend(fm.materialize, fm.clusterRanges), y, 5, reCols = Some(Array(0)))
    f1.beta.zip(f2.beta).foreach { case (a, b) => assert(math.abs(a - b) < 1e-8) }
    assert(math.abs(f1.sigma2 - f2.sigma2) < 1e-8)
  }

  test("subset fits agree between backends with the varying column in or out of Z, and a collinear pair") {
    for (collinear <- Seq(false, true)) {
      val fm = fixture(11, collinear)
      assert(fm.blocks.size == 4)
      val rng = new Random(12)
      val y = Array.fill(fm.n)(rng.nextDouble())
      val res = Seq(Array(0, 1), Array(0, 2), Array(2)) ++ (if (collinear) Seq(Array(0, 2, 3)) else Nil)
      for (re <- res) {
        val f1 = MultiLevelEM.fit(new FactorizedBackend(fm), y, 5, reCols = Some(re))
        val f2 = MultiLevelEM.fit(new DenseBackend(fm.materialize, fm.clusterRanges), y, 5, reCols = Some(re))
        val what = s"reCols ${re.mkString(",")} collinear $collinear"
        f1.beta.zip(f2.beta).foreach { case (a, b) => assert(math.abs(a - b) < 1e-8, what) }
        assert(math.abs(f1.sigma2 - f2.sigma2) < 1e-8, what)
      }
    }
  }

  test("subset AIC uses the smaller parameter count") {
    val fm = fixture(7)
    val rng = new Random(8)
    val y = Array.fill(fm.n)(rng.nextDouble())
    val bk = new FactorizedBackend(fm)
    val sub = MultiLevelEM.fit(bk, y, 5, reCols = Some(Array(0)))
    // k = m + s(s+1)/2 + 1 with s = 1
    val expectedK = fm.m + 1 + 1
    val aic = MultiLevelEM.aic(bk, ObservedY.dense(y), sub)
    val ll = MultiLevelEM.logLikelihood(bk, ObservedY.dense(y), sub)
    assert(math.abs(aic - (2.0 * expectedK - 2.0 * ll)) < 1e-9)
  }

  test("bad random-effect indices are rejected") {
    val fm = fixture(9)
    val y = new Array[Double](fm.n)
    intercept[IllegalArgumentException] {
      MultiLevelEM.fit(new FactorizedBackend(fm), y, 2, reCols = Some(Array(fm.m)))
    }
  }

  test("unknown randomEffects config mode is rejected") {
    val fact = Seq(("a", 1.0), ("b", 2.0)).toDF("g", "v")
    intercept[IllegalArgumentException] {
      Reptile.rankDim(spark, fact, Vector(Dimension("dim", Vector("g"))), Map.empty, Map.empty,
        Complaint(AggType.Mean, Direction.TooLow), "v", "dim",
        cfg = ReptileConfig(emIters = 1, randomEffects = "bogus"))
    }
  }

  test("Mat.eliminate inverts in place and flags singularity") {
    val rng = new Random(10)
    for (trial <- 0 until 5) {
      val n = 4
      val base = new Mat(n, n, Array.fill(n * n)(rng.nextDouble()))
      val spd = base.t * base + (Mat.eye(n) * 0.5)
      val w = spd.a.clone()
      val inv = Mat.eye(n).a
      assert(Mat.eliminate(w, inv, n), s"trial $trial")
      assert((spd * new Mat(n, n, inv)).maxAbsDiff(Mat.eye(n)) < 1e-8)
    }
    val sing = Array(1.0, 2.0, 2.0, 4.0)
    assert(!Mat.eliminate(sing, Mat.eye(2).a, 2))
  }

  test("ridge escalation survives extremely ill-conditioned inputs") {
    val bad = Mat.fromRows(Seq(Seq(1.0, 1.0), Seq(1.0, 1.0)))
    val inv = Mat.ridgeInverse(bad, 1e-12)
    assert(inv.a.forall(v => !v.isNaN && !v.isInfinite))
  }

  test("candidates rank ascending by score") {
    val cand = (1 to 5).map(i =>
      Candidate(Map("g" -> s"g$i"), GroupStats(i, i, 0), GroupStats(i, i, 0), Map.empty, 6.0 - i, 0.0))
    val res = DimRankResult("d", "g", cand.toVector, 0.0)
    assert(res.ranked.map(_.score) == res.ranked.map(_.score).sorted)
    assert(res.best.values("g") == "g5")
  }

  test("empty parallel groups default to zero counts and get repaired upward") {
    // village v2 has no 1986 rows at all: the empty group is a candidate.
    val rows =
      (for { y <- Seq("1985", "1986"); v <- Seq("v0", "v1", "v3"); _ <- 0 until 10 } yield (y, "d0", v, 5.0)) ++
        (0 until 10).map(_ => ("1985", "d0", "v2", 5.0))
    val fact = rows.toDF("year", "district", "village", "m")
    val dims = Vector(Dimension("time", Vector("year")), Dimension("geo", Vector("district", "village")))
    val res = Reptile.rankDim(spark, fact, dims,
      drilled = Map("time" -> 1, "geo" -> 1),
      filters = Map("year" -> "1986", "district" -> "d0"),
      complaint = Complaint(AggType.Count, Direction.TooLow),
      measure = "m", targetDim = "geo", cfg = ReptileConfig(emIters = 6))
    val v2 = res.candidates.find(_.values("village") == "v2").get
    assert(v2.observed == GroupStats.empty)
    assert(v2.repaired.count > 0, "model should predict a positive count for the missing group")
    assert(res.best.values("village") == "v2")
  }
}
