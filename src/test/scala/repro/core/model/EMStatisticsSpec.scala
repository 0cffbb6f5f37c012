package repro.core.model

import org.scalatest.funsuite.AnyFunSuite
import repro.core.fmatrix.{BlockGrams, FactorizedMatrix, FeatureColumn}
import repro.core.frep.HierRelation
import repro.core.linalg.Mat
import scala.collection.mutable
import scala.util.Random

/** The EM loop over y's statistics (X^T y, X_i^T y_i, the initial residual)
  * against the loop it replaced, which recomputed the n-length residual and
  * X Z b with the backend's per-cluster products every iteration; and y
  * given by its observed rows against the same y given at every row.
  */
class EMStatisticsSpec extends AnyFunSuite {

  /** time x geo(district -> village): 24 clusters in 4 parent blocks; `fv`
    * (column 3) varies inside a cluster.
    */
  private def fixture(seed: Long): FactorizedMatrix = {
    val rng = new Random(seed)
    val time = HierRelation("time", Seq("t"), (0 until 6).map(t => Seq(s"t$t")))
    val geo = HierRelation("geo", Seq("d", "v"),
      for { d <- 0 until 4; v <- 0 until 6 } yield Seq(s"d$d", s"d$d-v$v"))
    val fmap = mutable.HashMap.empty[String, Double]
    def feat(v: String): Double = fmap.getOrElseUpdate(v, rng.nextGaussian())
    new FactorizedMatrix(Vector(time, geo), Vector(
      FeatureColumn.Intercept,
      FeatureColumn("ft", 0, 0, feat),
      FeatureColumn("fd", 1, 0, feat),
      FeatureColumn("fv", 1, 1, feat)))
  }

  /** X beta + a random intercept (sd 1) per cluster + noise, plus `offset`. */
  private def synthY(fm: FactorizedMatrix, noiseSd: Double, offset: Double, seed: Long): Array[Double] = {
    val rng = new Random(seed)
    val y = fm.xv(Array(1.0, 0.5, -0.3, 0.8))
    fm.clusterRanges.foreach { case (s, l) =>
      val b = rng.nextGaussian()
      (s until s + l).foreach(i => y(i) += offset + b + rng.nextGaussian() * noiseSd)
    }
    y
  }

  /** The loop this EM replaced, with the same ridges: r = y - X beta and
    * X Z b as n-length vectors, each iteration one clusterXtv, clusterXa,
    * xtv and xv. It runs exactly `iters` iterations, with no stopping rule.
    */
  private def referenceFit(bk: MLBackend, y: Array[Double], iters: Int, reCols: Option[Array[Int]],
                           ridge: Double = 1e-8): MultiLevelFit = {
    val m = bk.m
    val g = bk.numClusters
    val re = reCols.getOrElse(Array.range(0, m))
    val s = re.length
    def sub(a: Array[Double], b: Array[Double]) = a.indices.map(i => a(i) - b(i)).toArray
    val gramInv = Mat.scaledRidgeInverse(bk.gram, ridge)
    val est = new BlockEStep(bk.blockGrams, m, re, ridge)
    val yScale = { val q = Mat.dot(y, y) / y.length; if (q > 0) q else 1.0 }
    var beta = gramInv.mv(bk.xtv(y))
    var resid = sub(y, bk.xv(beta))
    var sigma2 = math.max(Mat.dot(resid, resid) / y.length, 1e-9 * yScale)
    var sigma = Mat.eye(s) * sigma2
    val bs = new Array[Double](g * s)
    val padded = new Array[Double](g * m)
    val zero = new Array[Double](m)
    for (_ <- 0 until iters) {
      val sigmaInv = Mat.ridgeInverse(sigma, ridge)
      // At beta = 0 the sweep forms X_i^T y_i - G_i beta = X_i^T r_i exactly;
      // its X^T Z b is not used here.
      val trAcc = est.run(bk.clusterXtv(resid), zero, sigma2, sigmaInv.a, bs)
      for (i <- 0 until g; k <- 0 until s) padded(i * m + re(k)) = bs(i * s + k)
      val zb = bk.clusterXa(padded)
      beta = gramInv.mv(bk.xtv(sub(y, zb)))
      sigma = new Mat(s, s, est.sigAcc.map(_ / g))
      resid = sub(y, bk.xv(beta))
      sigma2 = math.max((Mat.dot(resid, resid) + trAcc - 2.0 * Mat.dot(resid, zb)) / bk.n, 1e-12 * yScale)
    }
    MultiLevelFit(beta, sigma, sigma2, bs, re, iters, est.escalations, Array.emptyDoubleArray)
  }

  private def relErr(a: Array[Double], b: Array[Double]): Double =
    a.zip(b).map { case (x, y) => math.abs(x - y) }.max / b.map(math.abs).max

  private def backends(fm: FactorizedMatrix): Seq[MLBackend] =
    Seq(new FactorizedBackend(fm), new DenseBackend(fm.materialize, fm.clusterRanges))

  test("the statistics loop matches the n-length-residual loop on both backends") {
    // (noise sd, offset, tolerance on beta and Sigma, on sigma2, on predictions).
    // At noise sd 1e-3 sigma2 is ~1e-6 of |y|^2 / n: the reference alone,
    // run on the two backends, differs by up to 7e-4 in sigma2.
    val cases = Seq(
      (1.0, 0.0, 1e-9, 1e-9, 1e-9),
      (1.0, 1e6, Double.NaN, 1e-6, 1e-8), // y far from zero: both sides cancel in |r|^2
      (1e-3, 0.0, Double.NaN, 1e-3, 1e-7), // noise below the random effects: both lose digits
    )
    for ((noiseSd, offset, tolCoef, tolS2, tolPred) <- cases; seed <- 0 until 2) {
      val fm = fixture(seed)
      val y = synthY(fm, noiseSd, offset, seed + 10)
      for (re <- Seq(None, Some(Array(0))); bk <- backends(fm)) {
        // The fit may stop before its cap of 20; the reference runs as many.
        val got = MultiLevelEM.fit(bk, y, 20, reCols = re)
        val want = referenceFit(bk, y, got.iterations, re)
        val what = s"${bk.getClass.getSimpleName} noise $noiseSd offset $offset seed $seed " +
          re.map(_.mkString("reCols ", ",", "")).getOrElse("all columns")
        if (!tolCoef.isNaN) {
          assert(relErr(got.beta, want.beta) <= tolCoef, s"beta, $what")
          assert(relErr(got.sigma.a, want.sigma.a) <= tolCoef, s"Sigma, $what")
        }
        assert(math.abs(got.sigma2 - want.sigma2) <= tolS2 * want.sigma2, s"sigma2, $what")
        val err = relErr(MultiLevelEM.predict(bk, got), MultiLevelEM.predict(bk, want))
        assert(err <= tolPred, s"predictions, $what: $err")
      }
    }
  }

  /** Counts the calls to each backend primitive. */
  private final class CountingBackend(bk: MLBackend) extends MLBackend {
    val calls: mutable.Map[String, Int] = mutable.Map.empty[String, Int].withDefaultValue(0)
    private def counted[A](name: String)(a: => A): A = { calls(name) += 1; a }
    def n: Int = bk.n
    def m: Int = bk.m
    def gram: Mat = counted("gram")(bk.gram)
    def row(r: Int, out: Array[Double]): Int = counted("row")(bk.row(r, out))
    def xv(a: Array[Double]): Array[Double] = counted("xv")(bk.xv(a))
    def xtv(v: Array[Double]): Array[Double] = counted("xtv")(bk.xtv(v))
    def numClusters: Int = bk.numClusters
    def blockGrams: BlockGrams = counted("blockGrams")(bk.blockGrams)
    def clusterXtv(v: Array[Double]): Array[Double] = counted("clusterXtv")(bk.clusterXtv(v))
    def clusterXa(as: Array[Double]): Array[Double] = counted("clusterXa")(bk.clusterXa(as))
  }

  /** ~5% of `fm`'s rows observed around a default of 50 (a MEAN-like y),
    * as its observed rows and as the same y at every row.
    */
  private def observed(fm: FactorizedMatrix, seed: Long): (ObservedY, Array[Double]) = {
    val rng = new Random(seed)
    val c = 50.0
    val rows = (0 until fm.n).filter(_ => rng.nextDouble() < 0.05).toArray
    val x = new Array[Double](fm.m)
    val values = rows.map { r => fm.row(r, x); c + x.sum + rng.nextGaussian() }
    val dense = Array.fill(fm.n)(c)
    rows.indices.foreach(k => dense(rows(k)) = values(k))
    (ObservedY(rows, values, c), dense)
  }

  test("fit takes y's statistics once: no n-length product inside the EM loop") {
    // y's rows are read in one pass, and a dense y's once more for the exact
    // initial residual; no iteration reads a row.
    val fm = fixture(3)
    val y = synthY(fm, 1.0, 0.0, 13)
    val (sparse, _) = observed(fm, 23)
    for (inner <- backends(fm); k <- Seq(1, 15); (obs, reads) <- Seq(ObservedY.dense(y) -> 2 * fm.n,
        sparse -> sparse.rows.length)) {
      val bk = new CountingBackend(inner)
      MultiLevelEM.fit(bk, obs, k, 1e-8, None)
      val what = s"${inner.getClass.getSimpleName}, $k iterations, ${obs.rows.length} rows: ${bk.calls}"
      assert(bk.calls("row") == reads, what)
      assert(Seq("xtv", "clusterXtv", "xv", "clusterXa").forall(bk.calls(_) == 0), what)
      assert(bk.calls("gram") == 1 && bk.calls("blockGrams") == 1, what)
    }
  }

  test("logLikelihood is one sweep: blockGrams once, y's rows read once, no n-length product") {
    val fm = fixture(4)
    val y = synthY(fm, 1.0, 0.0, 14)
    val (sparse, _) = observed(fm, 24)
    for (inner <- backends(fm); re <- Seq(None, Some(Array(0))); (obs, reads, grams) <- Seq(
        (ObservedY.dense(y), 2 * fm.n, 0), (sparse, sparse.rows.length, 1))) {
      val fit = MultiLevelEM.fit(inner, obs, 5, 1e-8, re)
      val bk = new CountingBackend(inner)
      MultiLevelEM.logLikelihood(bk, obs, fit, 1e-8)
      val what = s"${inner.getClass.getSimpleName} ${re.fold("all columns")(_.mkString("reCols ", ",", ""))}, " +
        s"${obs.rows.length} rows: ${bk.calls}"
      assert(bk.calls("blockGrams") == 1 && bk.calls("row") == reads, what)
      // A sparse y's residual takes beta^T X^T X beta from the gram.
      assert(bk.calls("gram") == grams, what)
      assert(Seq("xtv", "clusterXtv", "xv", "clusterXa").forall(bk.calls(_) == 0), what)
    }
  }

  test("y given by its observed rows and a default fits as the same y given at every row") {
    for (seed <- 0 until 2) {
      val fm = fixture(seed)
      val (obs, dense) = observed(fm, seed + 30)
      for (bk <- backends(fm); re <- Seq(None, Some(Array(0)))) {
        val got = MultiLevelEM.fit(bk, obs, 20, 1e-8, re)
        val want = MultiLevelEM.fit(bk, dense, 20, reCols = re)
        val what = s"${bk.getClass.getSimpleName} seed $seed " + re.fold("all columns")(_.mkString("reCols ", ",", ""))
        val (p, q) = (MultiLevelEM.predict(bk, got), MultiLevelEM.predict(bk, want))
        p.indices.foreach(r => assert(math.abs(p(r) - q(r)) <= 1e-9 * math.abs(q(r)), s"row $r, $what"))
        // At sampled rows, x_r^T beta + z_r^T b_i against X beta + Z b.
        val padded = new Array[Double](bk.numClusters * bk.m)
        for (i <- 0 until bk.numClusters; k <- got.reCols.indices)
          padded(i * bk.m + got.reCols(k)) = got.bs(i * got.reCols.length + k)
        val (xb, zb) = (bk.xv(got.beta), bk.clusterXa(padded))
        val rng = new Random(seed)
        val rows = Array.fill(40)(rng.nextInt(fm.n))
        MultiLevelEM.predict(bk, got, rows).zip(rows).foreach { case (v, r) =>
          assert(math.abs(v - (xb(r) + zb(r))) <= 1e-12 * math.abs(v), s"row $r, $what")
        }
      }
    }
  }
}
