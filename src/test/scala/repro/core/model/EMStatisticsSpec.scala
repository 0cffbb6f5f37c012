package repro.core.model

import org.scalatest.funsuite.AnyFunSuite
import repro.core.fmatrix.{BlockGrams, FactorizedMatrix, FeatureColumn}
import repro.core.frep.HierRelation
import repro.core.linalg.Mat
import scala.collection.mutable
import scala.util.Random

/** The EM loop over y's statistics (X^T y, X_i^T y_i, the initial residual)
  * against the loop it replaced, which recomputed the n-length residual and
  * X Z b with the backend's per-cluster products every iteration.
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
    * xtv and xv.
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
    MultiLevelFit(beta, sigma, sigma2, bs, re, iters, est.escalations)
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
        val got = MultiLevelEM.fit(bk, y, 20, reCols = re)
        val want = referenceFit(bk, y, 20, re)
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
    def xv(a: Array[Double]): Array[Double] = counted("xv")(bk.xv(a))
    def xtv(v: Array[Double]): Array[Double] = counted("xtv")(bk.xtv(v))
    def numClusters: Int = bk.numClusters
    def blockGrams: BlockGrams = counted("blockGrams")(bk.blockGrams)
    def clusterXtv(v: Array[Double]): Array[Double] = counted("clusterXtv")(bk.clusterXtv(v))
    def clusterXa(as: Array[Double]): Array[Double] = counted("clusterXa")(bk.clusterXa(as))
  }

  test("fit takes y's statistics once: no n-length product inside the EM loop") {
    val fm = fixture(3)
    val y = synthY(fm, 1.0, 0.0, 13)
    for (inner <- backends(fm); k <- Seq(1, 15)) {
      val bk = new CountingBackend(inner)
      MultiLevelEM.fit(bk, y, k)
      val what = s"${inner.getClass.getSimpleName}, $k iterations: ${bk.calls}"
      assert(bk.calls("xtv") == 1, what)
      assert(bk.calls("clusterXtv") == 1, what)
      assert(bk.calls("xv") <= 1, what)
      assert(bk.calls("clusterXa") == 0, what)
      assert(bk.calls("gram") == 1 && bk.calls("blockGrams") == 1, what)
    }
  }

  test("logLikelihood is one sweep: blockGrams and clusterXtv once, xv at most once") {
    val fm = fixture(4)
    val y = synthY(fm, 1.0, 0.0, 14)
    for (inner <- backends(fm); re <- Seq(None, Some(Array(0)))) {
      val fit = MultiLevelEM.fit(inner, y, 5, reCols = re)
      val bk = new CountingBackend(inner)
      MultiLevelEM.logLikelihood(bk, y, fit)
      val what = s"${inner.getClass.getSimpleName} ${re.fold("all columns")(_.mkString("reCols ", ",", ""))}: " +
        bk.calls
      assert(bk.calls("blockGrams") == 1 && bk.calls("clusterXtv") == 1, what)
      assert(bk.calls("xv") <= 1, what)
      assert(bk.calls("xtv") == 0 && bk.calls("gram") == 0 && bk.calls("clusterXa") == 0, what)
    }
  }
}
