package repro.core

import repro.SparkSpec
import repro.core.fmatrix.{FactorizedMatrix, FeatureColumn}
import repro.core.frep.HierRelation
import repro.core.linalg.Mat
import repro.core.model._
import scala.util.Random

class MultiLevelEMSpec extends SparkSpec {

  /** time x geo(district -> village): clusters = (time, district), one
    * parent block per district; `fv` (column 3, times `scale`) varies
    * inside a cluster. `collinear` adds `fv2 = 2 fv`, a second varying column.
    */
  private def fixture(nT: Int = 4, nD: Int = 3, nV: Int = 5, seed: Long = 0, collinear: Boolean = false,
                      scale: Double = 1.0) = {
    val rng = new Random(seed)
    val time = HierRelation("time", Seq("t"), (0 until nT).map(t => Seq(f"t$t%02d")))
    val geo = HierRelation("geo", Seq("d", "v"),
      for { d <- 0 until nD; v <- 0 until nV } yield Seq(s"d$d", s"d$d-v$v"))
    val fmap = scala.collection.mutable.HashMap.empty[String, Double]
    def feat(v: String): Double = fmap.getOrElseUpdate(v, rng.nextGaussian())
    val cols = Vector(
      FeatureColumn.Intercept,
      FeatureColumn("ft", 0, 0, feat),
      FeatureColumn("fd", 1, 0, feat),
      FeatureColumn("fv", 1, 1, v => scale * feat(v)))
    val extra = if (collinear) Vector(FeatureColumn("fv2", 1, 1, v => 2.0 * scale * feat(v))) else Vector.empty
    new FactorizedMatrix(Vector(time, geo), cols ++ extra)
  }

  /** time(t) x store(region -> store) x product(category -> product):
    * clusters = (t, store, category), one parent block per category, of 2,
    * 3 and 4 products; every attribute has a column, `f:product` (5) varies.
    */
  private def threeHierarchies(seed: Long): FactorizedMatrix = {
    val rng = new Random(seed)
    val time = HierRelation("time", Seq("t"), (0 until 3).map(t => Seq(s"t$t")))
    val store = HierRelation("store", Seq("region", "store"),
      for { r <- 0 until 2; st <- 0 until 2 } yield Seq(s"r$r", s"r$r-s$st"))
    val product = HierRelation("product", Seq("category", "product"),
      for { c <- 0 until 3; p <- 0 until 2 + c } yield Seq(s"c$c", s"c$c-p$p"))
    val fmap = scala.collection.mutable.HashMap.empty[String, Double]
    def feat(v: String): Double = fmap.getOrElseUpdate(v, rng.nextGaussian())
    val hiers = Vector(time, store, product)
    new FactorizedMatrix(hiers, FeatureColumn.Intercept +:
      (for (h <- hiers.indices; a <- 0 until hiers(h).depth) yield FeatureColumn(s"f:${hiers(h).attrs(a)}", h, a, feat))
        .toVector)
  }

  private def dense(fm: FactorizedMatrix) = new DenseBackend(fm.materialize, fm.clusterRanges)

  /** The marginal log-likelihood cluster by cluster over slices of the
    * materialized matrix: y_i ~ N(X_i beta, V_i), V_i = Z_i Sigma Z_i^T +
    * sigma2 I, factored and inverted outright.
    */
  private def denseLogLikelihood(fm: FactorizedMatrix, y: Array[Double], fit: MultiLevelFit): Double = {
    val x = fm.materialize
    fm.clusterRanges.map { case (start, l) =>
      val rows = start until start + l
      val zi = Mat.fromRows(rows.map(r => fit.reCols.toSeq.map(x(r, _))))
      val v = zi * fit.sigma * zi.t + Mat.eye(l) * fit.sigma2
      val r = rows.map(k => y(k) - (0 until fm.m).map(j => x(k, j) * fit.beta(j)).sum).toArray
      -0.5 * (l * math.log(2 * math.Pi) + Mat.logDet(v) + Mat.dot(r, v.inverse.mv(r)))
    }.sum
  }

  /** The factorised and dense fits agree: beta, sigma2 and Sigma to 1e-6,
    * predictions to 1e-5.
    */
  private def assertSameFit(fm: FactorizedMatrix, y: Array[Double], iters: Int, reCols: Option[Array[Int]]): Unit = {
    val fb = new FactorizedBackend(fm)
    val db = dense(fm)
    val f1 = MultiLevelEM.fit(fb, y, iters, reCols = reCols)
    val f2 = MultiLevelEM.fit(db, y, iters, reCols = reCols)
    val what = reCols.map(_.mkString("reCols ", ",", "")).getOrElse("all columns")
    f1.beta.zip(f2.beta).foreach { case (a, b) => assert(math.abs(a - b) < 1e-6, s"beta, $what") }
    assert(math.abs(f1.sigma2 - f2.sigma2) < 1e-6, s"sigma2, $what")
    assert(f1.sigma.maxAbsDiff(f2.sigma) < 1e-6, s"Sigma, $what")
    MultiLevelEM.predict(fb, f1).zip(MultiLevelEM.predict(db, f2)).foreach { case (a, b) =>
      assert(math.abs(a - b) < 1e-5, s"prediction, $what")
    }
  }

  private def synthY(fm: FactorizedMatrix, beta: Array[Double], reSd: Double, noiseSd: Double, seed: Long): Array[Double] = {
    val rng = new Random(seed)
    val y = fm.xv(beta)
    fm.clusterRanges.foreach { case (s, l) =>
      val b = rng.nextGaussian() * reSd // random intercept per cluster
      (s until s + l).foreach(i => y(i) += b + rng.nextGaussian() * noiseSd)
    }
    y
  }

  test("factorized and dense backends produce identical EM fits") {
    // Three parent blocks; Z with and without the varying column fv (3).
    val fm = fixture()
    val y = synthY(fm, Array(1.0, 0.5, -0.3, 0.8), reSd = 0.5, noiseSd = 0.2, seed = 1)
    for (re <- Seq(None, Some(Array(0, 3)), Some(Array(3)), Some(Array(0, 1, 2)), Some(Array(1, 2))))
      assertSameFit(fm, y, 8, re)
  }

  test("factorized and dense fits agree with a collinear pair of varying columns") {
    val fm = fixture(seed = 23, collinear = true)
    val y = synthY(fm, Array(1.0, 0.5, -0.3, 0.4, 0.2), reSd = 0.5, noiseSd = 0.2, seed = 24)
    for (re <- Seq(None, Some(Array(0, 3, 4)), Some(Array(3, 4))))
      assertSameFit(fm, y, 8, re)
  }

  test("a large collinear pair in Z drives the per-block ridge escalation; the backends still agree") {
    // fv2 = 2 fv scaled by 1e7: along fv the data's precision D_b / sigma2
    // is ~1e13 times the prior's, which holds the direction fv - fv2/2 no
    // data sees, so A_b = Sigma^{-1} + D_b / sigma2 is singular to working
    // precision under the base ridge.
    for (seed <- 0 until 3) {
      val fm = fixture(seed = seed, collinear = true, scale = 1e7)
      val rng = new Random(seed)
      val y = Array.fill(fm.n)(rng.nextGaussian() * 0.2)
      fm.clusterRanges.foreach { case (s, l) =>
        val b = rng.nextGaussian()
        (s until s + l).foreach(r => y(r) += 1.0 + b)
      }
      for (re <- Seq(Array(3, 4), Array(0, 3, 4))) {
        Seq(new FactorizedBackend(fm), dense(fm)).foreach { bk =>
          val esc = MultiLevelEM.fit(bk, y, 8, reCols = Some(re)).ridgeEscalations
          assert(esc > 0, s"${bk.getClass.getSimpleName} seed $seed: no escalation")
        }
        assertSameFit(fm, y, 8, Some(re))
      }
    }
  }

  test("fitting c * y predicts c times the fit of y (scale equivariance)") {
    // With a cap of 20 the intercept-only fit stops on its own (at 10) and
    // the all-column one runs to the cap: c * y must stop where y does.
    val fm = fixture(nT = 8, seed = 25)
    assert(fm.n == 120 && fm.m == 4)
    val y = synthY(fm, Array(1.0, 0.5, -0.3, 0.8), reSd = 0.5, noiseSd = 0.2, seed = 26)
    val bk = new FactorizedBackend(fm)
    for ((re, iters) <- Seq(None -> 20, Some(Array(0)) -> 10)) {
      val fit = MultiLevelEM.fit(bk, y, 20, reCols = re)
      assert(fit.iterations == iters)
      val base = MultiLevelEM.predict(bk, fit)
      val norm = base.map(math.abs).max
      for (c <- Seq(1e-6, 1e-3, 1e3, 1e6)) {
        val scaledFit = MultiLevelEM.fit(bk, y.map(_ * c), 20, reCols = re)
        val what = s"c=$c reCols=${re.map(_.mkString(",")).getOrElse("all")}"
        assert(scaledFit.iterations == fit.iterations, what)
        val scaled = MultiLevelEM.predict(bk, scaledFit)
        val err = scaled.zip(base).map { case (p, q) => math.abs(p / c - q) }.max
        assert(err <= 1e-6 * norm, s"$what: error $err")
      }
    }
  }

  test("the fit's log-likelihood path is logLikelihood at each iteration's parameters") {
    val cases = Seq(
      ("time x geo", fixture(seed = 52), Array(1.0, 0.5, -0.3, 0.8), Seq(Array(0, 1, 2, 3), Array(0), Array(0, 3))),
      ("three hierarchies", threeHierarchies(53), Array(1.0, 0.5, -0.3, 0.8, 0.2, -0.4),
        Seq(Array.range(0, 6), Array(0), Array(2, 5))))
    for ((name, fm, beta, res) <- cases) {
      val y = synthY(fm, beta, reSd = 0.6, noiseSd = 0.3, seed = 62)
      for (re <- res; bk <- Seq(new FactorizedBackend(fm), dense(fm))) {
        val fit = MultiLevelEM.fit(bk, y, 12, reCols = Some(re))
        assert(fit.logLikelihoods.length == fit.iterations)
        fit.logLikelihoods.zipWithIndex.foreach { case (got, k) =>
          // A fit capped at k stops at the parameters the k+1-th sweep ran at.
          val want = MultiLevelEM.logLikelihood(bk, ObservedY.dense(y), MultiLevelEM.fit(bk, y, k, reCols = Some(re)))
          assert(math.abs(got - want) <= 1e-9 * math.abs(want),
            s"$name ${bk.getClass.getSimpleName} reCols ${re.mkString(",")} iteration $k: $got vs $want")
        }
      }
    }
  }

  test("EM stops once the log-likelihood stops rising: a higher cap changes nothing") {
    // Intercept-only random effects converge in ~10 iterations here.
    for (seed <- 0 until 3) {
      val fm = fixture(nT = 8, seed = 70 + seed)
      val y = synthY(fm, Array(1.0, 0.5, -0.3, 0.8), reSd = 0.5, noiseSd = 0.2, seed = 80 + seed)
      for (bk <- Seq(new FactorizedBackend(fm), dense(fm))) {
        val what = s"${bk.getClass.getSimpleName} seed $seed"
        val f20 = MultiLevelEM.fit(bk, y, 20, reCols = Some(Array(0)))
        val f200 = MultiLevelEM.fit(bk, y, 200, reCols = Some(Array(0)))
        assert(f20.iterations < 20, what)
        val ll = f20.logLikelihoods
        assert(math.abs(ll.last - ll(ll.length - 2)) <= MultiLevelEM.Tolerance * fm.n, what)
        assert(f200.iterations == f20.iterations, what)
        assert(Seq(f200.beta -> f20.beta, f200.sigma.a -> f20.sigma.a, f200.bs -> f20.bs,
          f200.logLikelihoods -> ll, Array(f200.sigma2) -> Array(f20.sigma2)).forall { case (a, b) => a.sameElements(b) },
          what)
      }
    }
  }

  test("a fit whose log-likelihood still rises runs to its cap") {
    // With every column random, EM creeps toward the variances of the
    // columns without cluster-level signal: lnL still rises at 200.
    for (seed <- 0 until 3) {
      val fm = fixture(nT = 8, seed = 70 + seed)
      val y = synthY(fm, Array(1.0, 0.5, -0.3, 0.8), reSd = 0.5, noiseSd = 0.2, seed = 80 + seed)
      for (bk <- Seq(new FactorizedBackend(fm), dense(fm)); cap <- Seq(1, 2, 20)) {
        val fit = MultiLevelEM.fit(bk, y, cap)
        val what = s"${bk.getClass.getSimpleName} seed $seed cap $cap"
        assert(fit.iterations == cap, what)
        val ll = fit.logLikelihoods
        (1 until ll.length).foreach(k => assert(ll(k) - ll(k - 1) > MultiLevelEM.Tolerance * fm.n, s"$what, iteration $k"))
      }
    }
  }

  test("the marginal log-likelihood never decreases over EM iterations") {
    for (seed <- 0 until 4; re <- Seq(None, Some(Array(0)))) {
      val fm = fixture(seed = 30 + seed)
      val y = synthY(fm, Array(1.0, 0.5, -0.3, 0.8), reSd = 0.6, noiseSd = 0.3, seed = 40 + seed)
      for (bk <- Seq(new FactorizedBackend(fm), dense(fm))) {
        val ll = (1 to 15).map(k => MultiLevelEM.logLikelihood(bk, ObservedY.dense(y), MultiLevelEM.fit(bk, y, k, reCols = re)))
        (1 until ll.size).foreach { k =>
          assert(ll(k) >= ll(k - 1) - 1e-9, s"${bk.getClass.getSimpleName} seed $seed reCols " +
            s"${re.map(_.mkString(",")).getOrElse("all")}: lnL ${ll(k - 1)} -> ${ll(k)} at iteration ${k + 1}")
        }
      }
    }
  }

  test("the sweep's log-likelihood equals the per-cluster dense formula on both backends") {
    val cases = Seq(
      ("time x geo", fixture(seed = 50), Array(1.0, 0.5, -0.3, 0.8), Seq(Array(0, 1, 2, 3), Array(0), Array(0, 3))),
      ("three hierarchies", threeHierarchies(51), Array(1.0, 0.5, -0.3, 0.8, 0.2, -0.4),
        Seq(Array.range(0, 6), Array(0), Array(2, 5))))
    for ((name, fm, beta, res) <- cases; seed <- 0 until 2) {
      assert(fm.blocks.size == 3)
      val y = synthY(fm, beta, reSd = 0.6, noiseSd = 0.3, seed = 60 + seed)
      for (re <- res; bk <- Seq(new FactorizedBackend(fm), dense(fm))) {
        val fit = MultiLevelEM.fit(bk, y, 10, reCols = Some(re))
        val got = MultiLevelEM.logLikelihood(bk, ObservedY.dense(y), fit)
        val want = denseLogLikelihood(fm, y, fit)
        assert(math.abs(got - want) <= 1e-6 * math.abs(want),
          s"$name ${bk.getClass.getSimpleName} seed $seed reCols ${re.mkString(",")}: $got vs $want")
      }
    }
  }

  test("EM recovers fixed effects on clean data") {
    val fm = fixture(nT = 6, nD = 4, nV = 6, seed = 3)
    val beta = Array(2.0, 1.0, -0.5, 0.25)
    val y = synthY(fm, beta, reSd = 0.0, noiseSd = 0.01, seed = 2)
    val fit = MultiLevelEM.fit(new FactorizedBackend(fm), y, iters = 15)
    val pred = MultiLevelEM.predict(new FactorizedBackend(fm), fit)
    val rmse = math.sqrt(pred.zip(y).map { case (p, o) => (p - o) * (p - o) }.sum / y.length)
    assert(rmse < 0.05, s"rmse $rmse")
  }

  test("EM absorbs cluster-level shifts via random effects") {
    val fm = fixture(nT = 6, nD = 4, nV = 6, seed = 5)
    val y = synthY(fm, Array(1.0, 0.0, 0.0, 0.0), reSd = 2.0, noiseSd = 0.05, seed = 6)
    val bk = new FactorizedBackend(fm)
    val ml = MultiLevelEM.fit(bk, y, iters = 15)
    val mlPred = MultiLevelEM.predict(bk, ml)
    val ols = LinearModel.fit(bk, y)
    val olsPred = LinearModel.predict(bk, ols)
    def rmse(p: Array[Double]) = math.sqrt(p.zip(y).map { case (a, b) => (a - b) * (a - b) }.sum / y.length)
    assert(rmse(mlPred) < rmse(olsPred) / 3,
      s"multi-level ${rmse(mlPred)} should beat OLS ${rmse(olsPred)} on clustered data")
  }

  test("sigma2 estimate is in the right ballpark") {
    val fm = fixture(nT = 8, nD = 4, nV = 8, seed = 7)
    val y = synthY(fm, Array(1.0, 0.5, 0.5, 0.5), reSd = 1.0, noiseSd = 0.3, seed = 8)
    val fit = MultiLevelEM.fit(new FactorizedBackend(fm), y, iters = 20)
    assert(fit.sigma2 > 0.01 && fit.sigma2 < 1.0, s"sigma2 ${fit.sigma2}")
  }

  test("EM handles a single cluster without blowing up") {
    val h = HierRelation("g", Seq("g"), (0 until 50).map(i => Seq(f"g$i%02d")))
    val rng = new Random(9)
    val aux = (0 until 50).map(i => f"g$i%02d" -> rng.nextGaussian()).toMap
    val fm = new FactorizedMatrix(Vector(h),
      Vector(FeatureColumn.Intercept, FeatureColumn("aux", 0, 0, aux)))
    val y = fm.xv(Array(10.0, 2.0)).map(_ + rng.nextGaussian() * 0.1)
    val fit = MultiLevelEM.fit(new FactorizedBackend(fm), y, iters = 10)
    val pred = MultiLevelEM.predict(new FactorizedBackend(fm), fit)
    val rmse = math.sqrt(pred.zip(y).map { case (p, o) => (p - o) * (p - o) }.sum / y.length)
    assert(rmse < 0.5)
  }

  test("collinear features do not crash the fit (ridge)") {
    val h = HierRelation("g", Seq("g"), (0 until 10).map(i => Seq(s"g$i")))
    val fm = new FactorizedMatrix(Vector(h),
      Vector(FeatureColumn.Intercept, FeatureColumn("const", 0, 0, _ => 1.0)))
    val y = Array.fill(10)(3.0)
    val fit = MultiLevelEM.fit(new FactorizedBackend(fm), y, iters = 5)
    val pred = MultiLevelEM.predict(new FactorizedBackend(fm), fit)
    pred.foreach(p => assert(math.abs(p - 3.0) < 0.1))
  }

  test("logLikelihood is higher for the better-fitting model") {
    val fm = fixture(nT = 4, nD = 3, nV = 4, seed = 11)
    val y = synthY(fm, Array(1.0, 0.4, 0.2, -0.3), reSd = 0.8, noiseSd = 0.1, seed = 12)
    val bk = new FactorizedBackend(fm)
    val good = MultiLevelEM.fit(bk, y, iters = 15)
    val bad = good.copy(beta = good.beta.map(_ + 5.0))
    assert(MultiLevelEM.logLikelihood(bk, ObservedY.dense(y), good) > MultiLevelEM.logLikelihood(bk, ObservedY.dense(y), bad))
  }

  test("LinearModel OLS matches the normal equations") {
    val fm = fixture(seed = 13)
    val rng = new Random(13)
    val y = Array.fill(fm.n)(rng.nextDouble())
    val fit = LinearModel.fit(new FactorizedBackend(fm), y, ridge = 0.0)
    val x = fm.materialize
    val direct = Mat.ridgeInverse(x.t * x, 0.0).mv(x.tmv(y))
    fit.beta.zip(direct).foreach { case (a, b) => assert(math.abs(a - b) < 1e-8) }
  }

  test("AIC penalizes the larger model on pure-noise data") {
    val h = HierRelation("g", Seq("g"), (0 until 40).map(i => Seq(f"g$i%02d")))
    val rng = new Random(17)
    val y = Array.fill(40)(rng.nextGaussian())
    val small = new FactorizedMatrix(Vector(h), Vector(FeatureColumn.Intercept))
    val aicSmall = MultiLevelEM.aic(new FactorizedBackend(small), ObservedY.dense(y),
      LinearModel.fit(new FactorizedBackend(small), y))
    val noise = (0 until 40).map(i => f"g$i%02d" -> rng.nextGaussian()).toMap
    val big = new FactorizedMatrix(Vector(h), Vector(
      FeatureColumn.Intercept,
      FeatureColumn("n1", 0, 0, noise),
      FeatureColumn("n2", 0, 0, v => noise(v) * noise(v))))
    val aicBig = MultiLevelEM.aic(new FactorizedBackend(big), ObservedY.dense(y),
      LinearModel.fit(new FactorizedBackend(big), y))
    assert(aicSmall < aicBig + 6.0) // noise features should not win decisively
  }
}
