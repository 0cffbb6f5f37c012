package repro.core.model

import java.util.concurrent.{Callable, ForkJoinPool}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.fmatrix.{FactorizedMatrix, FeatureColumn}
import repro.core.frep.HierRelation
import repro.core.linalg.Mat
import scala.util.Random

/** The EM sweep over the block-plus-rank-2 cluster grams against direct
  * per-cluster sums: the E-step against W_i = Z_i^T Z_i / sigma2 +
  * Sigma^{-1} + lambda I inverted outright, X^T Z b and b^T X^T y against
  * the materialized matrix; and a fit split into chunks against itself on
  * other thread counts.
  */
class BlockEStepSpec extends AnyFunSuite {

  /** time x geo(district -> village): one parent block per district, one
    * cluster per (time, district); `fv` (3) varies.
    */
  private def fixture(seed: Long, times: Int = 3, districts: Int = 3, villages: Int = 4): FactorizedMatrix = {
    val rng = new Random(seed)
    val time = HierRelation("time", Seq("t"), (0 until times).map(t => Seq(s"t$t")))
    val geo = HierRelation("geo", Seq("d", "v"),
      for { d <- 0 until districts; v <- 0 until villages } yield Seq(s"d$d", s"d$d-v$v"))
    val fmap = scala.collection.mutable.HashMap.empty[String, Double]
    def feat(v: String): Double = fmap.getOrElseUpdate(v, rng.nextGaussian())
    new FactorizedMatrix(Vector(time, geo), Vector(
      FeatureColumn.Intercept,
      FeatureColumn("ft", 0, 0, feat),
      FeatureColumn("fd", 1, 0, feat),
      FeatureColumn("fv", 1, 1, feat)))
  }

  private def relErr(a: Array[Double], b: Array[Double]): Double =
    a.zip(b).map { case (x, y) => math.abs(x - y) }.max / b.map(math.abs).max

  /** One sweep on both backends at a nonzero beta: the E-step against a
    * direct per-cluster solve at r = y - X beta, and X^T Z b and
    * sum_i b~_i^T X_i^T y_i at the sweep's own posterior means against
    * sums over the materialized matrix.
    */
  private def checkAgainstDirect(fm: FactorizedMatrix, seed: Long, re: Array[Int]): Unit = {
    val ridge = 1e-2 // large enough that a dropped ridge term would show
    val rng = new Random(seed + 100)
    val s = re.length
    val sigma2 = 0.3
    val base = new Mat(s, s, Array.fill(s * s)(rng.nextGaussian()))
    val sigmaInv = (base.t * base + Mat.eye(s)).inverse
    val y = Array.fill(fm.n)(rng.nextGaussian())
    val beta = Array.fill(fm.m)(rng.nextGaussian())
    val x = fm.materialize
    val xb = x.mv(beta)
    val r = Array.tabulate(fm.n)(k => y(k) - xb(k))
    val lambda = ridge * Mat.ridgeScale(sigmaInv.a, s)

    // Direct: one s x s inverse per cluster.
    val g = fm.numClusters
    val muRef = new Array[Double](g * s)
    val sumRef = Mat.zeros(s, s)
    var trRef = 0.0
    for (i <- 0 until g) {
      val (start, l) = fm.clusterRanges(i)
      val x = new Array[Double](fm.m)
      val zi = Mat.fromRows((0 until l).map { k => fm.row(start + k, x); re.toSeq.map(j => x(j)) })
      val gi = zi.t * zi
      val v = (gi * (1.0 / sigma2) + sigmaInv + Mat.eye(s) * lambda).inverse
      val mu = v.mv(zi.tmv(r.slice(start, start + l))).map(_ / sigma2)
      val vmm = v + Mat.outer(mu)
      mu.copyToArray(muRef, i * s)
      (0 until s * s).foreach(k => sumRef.a(k) += vmm.a(k))
      trRef += (gi * vmm).trace
    }

    for (bk <- Seq(new FactorizedBackend(fm), new DenseBackend(x, fm.clusterRanges))) {
      val est = new BlockEStep(bk.blockGrams, fm.m, re, ridge)
      val mu = new Array[Double](g * s)
      val tr = est.run(bk.clusterXtv(y), beta, sigma2, sigmaInv.a, mu)
      val what = s"${bk.getClass.getSimpleName} seed $seed reCols ${re.mkString(",")}"
      assert(est.escalations == 0, what)
      assert(relErr(mu, muRef) < 1e-9, s"mu, $what")
      assert(relErr(est.sigAcc, sumRef.a) < 1e-9, s"Sigma sum, $what")
      assert(math.abs(tr - trRef) < 1e-9 * math.abs(trRef), s"trace, $what")

      // X^T Z b = sum_i X_i^T X_i b~_i and sum_i b~_i^T X_i^T y_i, row by row.
      val xtzbRef = new Array[Double](fm.m)
      var btyRef = 0.0
      for (i <- 0 until g) {
        val (start, l) = fm.clusterRanges(i)
        for (row <- start until start + l) {
          val zb = (0 until s).map(k => x(row, re(k)) * mu(i * s + k)).sum
          (0 until fm.m).foreach(j => xtzbRef(j) += x(row, j) * zb)
          btyRef += y(row) * zb
        }
      }
      assert(relErr(est.xtzb, xtzbRef) < 1e-12, s"X^T Z b, $what")
      assert(math.abs(est.bty - btyRef) < 1e-12 * math.abs(btyRef), s"b^T X^T y, $what")
    }
  }

  test("posterior means, the Sigma sum and the trace term match a direct per-cluster solve") {
    for (seed <- 0 until 3; re <- Seq(Array(0, 1, 2, 3), Array(0, 3), Array(1, 2), Array(3)))
      checkAgainstDirect(fixture(seed), seed, re)
  }

  /** 2,200 clusters in two parent blocks: three chunks on either backend. */
  private def chunked(seed: Long): FactorizedMatrix = fixture(seed, times = 1100, districts = 2, villages = 3)

  test("a fixture of several chunks matches the direct per-cluster solve") {
    val fm = chunked(7)
    assert(fm.blocks.size >= 2)
    for (bk <- Seq(new FactorizedBackend(fm), new DenseBackend(fm.materialize, fm.clusterRanges)))
      assert(new Chunks(bk.blockGrams).count >= 3, bk.getClass.getSimpleName)
    for (re <- Seq(Array(0, 1, 2, 3), Array(0))) checkAgainstDirect(fm, 7, re)
  }

  test("a fit gives the same bits on one thread as on many") {
    val fm = chunked(8)
    val rng = new Random(18)
    val y = fm.xv(Array(1.0, 0.5, -0.3, 0.8))
    fm.clusterRanges.foreach { case (s, l) =>
      val b = rng.nextGaussian()
      (s until s + l).foreach(i => y(i) += b + rng.nextGaussian())
    }
    val pools = Seq(new ForkJoinPool(1), new ForkJoinPool(4))
    try {
      for (bk <- Seq(new FactorizedBackend(fm), new DenseBackend(fm.materialize, fm.clusterRanges));
           re <- Seq(None, Some(Array(0)))) {
        def fit(): MultiLevelFit = MultiLevelEM.fit(bk, y, 8, reCols = re)
        val common = fit()
        for (pool <- pools) {
          val got = pool.submit(new Callable[MultiLevelFit] { def call(): MultiLevelFit = fit() }).get()
          val what = s"${bk.getClass.getSimpleName} ${re.fold("all columns")(_.mkString("reCols ", ",", ""))}, " +
            s"${pool.getParallelism} thread(s) vs the common pool"
          assert(java.util.Arrays.equals(got.beta, common.beta), s"beta, $what")
          assert(java.util.Arrays.equals(got.sigma.a, common.sigma.a), s"Sigma, $what")
          assert(java.lang.Double.compare(got.sigma2, common.sigma2) == 0, s"sigma2, $what")
          assert(java.util.Arrays.equals(got.bs, common.bs), s"bs, $what")
          assert(got.ridgeEscalations == common.ridgeEscalations, s"ridge escalations, $what")
        }
      }
    } finally pools.foreach(_.shutdown())
  }
}
