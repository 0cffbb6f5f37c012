package repro.core

import repro.SparkSpec
import repro.core.fmatrix.{FactorizedMatrix, FeatureColumn}
import repro.core.frep.HierRelation
import repro.core.linalg.Mat
import repro.core.model.{DenseBackend, FactorizedBackend}
import repro.synth.DatasetSynth
import scala.util.Random

/** Every factorised matrix operation is verified against the same
  * operation over the fully materialized matrix, on randomized multi-level
  * hierarchies (the materialized path is independently exercised by
  * MatSpec / DenseBackend).
  */
class FactorizedMatrixSpec extends SparkSpec {

  /** Random tree-shaped hierarchy with `depth` attributes. */
  private def randomHier(name: String, depth: Int, rng: Random): HierRelation = {
    val roots = 1 + rng.nextInt(3)
    var tuples = (0 until roots).map(r => Vector(s"$name-0-$r"))
    for (level <- 1 until depth) {
      tuples = tuples.flatMap { parent =>
        val kids = 1 + rng.nextInt(3)
        (0 until kids).map(k => parent :+ s"${parent.last}-$k")
      }
    }
    HierRelation(name, (0 until depth).map(k => s"$name$k"), tuples)
  }

  private def randomMatrix(seed: Long, maxHiers: Int = 3): FactorizedMatrix = {
    val rng = new Random(seed)
    val nH = 1 + rng.nextInt(maxHiers)
    val hiers = (0 until nH).toVector.map(h => randomHier(s"H$h", 1 + rng.nextInt(3), rng))
    val cols = Vector.newBuilder[FeatureColumn]
    cols += FeatureColumn.Intercept
    for (h <- 0 until nH; ai <- 0 until hiers(h).depth; c <- 0 until 1 + rng.nextInt(2)) {
      val salt = rng.nextLong()
      cols += FeatureColumn(s"f$h-$ai-$c", h, ai, v => DatasetSynth.pseudo(v.hashCode.toLong ^ salt))
    }
    new FactorizedMatrix(hiers, cols.result())
  }

  test("n is the product of hierarchy totals; shape bounds hold") {
    for (seed <- 0 until 10) {
      val fm = randomMatrix(seed)
      assert(fm.n == fm.hiers.map(_.total).product)
      assert(fm.m == fm.cols.size)
      assert(fm.materialize.rows == fm.n)
    }
  }

  /** The per-hierarchy row indices making up global row `i`. */
  private def coords(fm: FactorizedMatrix, i: Int): Array[Int] =
    Array.tabulate(fm.H)(h => i / fm.innerSize(h) % fm.totals(h))

  test("coords/indexOf round trip") {
    for (seed <- 0 until 5) {
      val fm = randomMatrix(seed)
      for (i <- 0 until math.min(fm.n, 50)) {
        assert(fm.indexOf(coords(fm, i).toIndexedSeq) == i)
      }
    }
  }

  test("row enumeration matches the cartesian product in order") {
    val fm = randomMatrix(3)
    val x = fm.materialize
    // adjacent rows differ only in the suffix hierarchies (odometer order)
    for (i <- 0 until math.min(fm.n, 100)) {
      val row = new Array[Double](fm.m)
      fm.row(i, row)
      (0 until fm.m).foreach(j => assert(row(j) == x(i, j)))
    }
  }

  test("gram matches dense gram on random hierarchies") {
    for (seed <- 0 until 15) {
      val fm = randomMatrix(seed + 100)
      val x = fm.materialize
      val dense = x.t * x
      assert(fm.gram.maxAbsDiff(dense) < 1e-8 * math.max(1.0, fm.n.toDouble),
        s"gram mismatch at seed $seed (n=${fm.n}, m=${fm.m})")
    }
  }

  test("xtv (left multiplication) matches dense") {
    for (seed <- 0 until 15) {
      val fm = randomMatrix(seed + 200)
      val rng = new Random(seed)
      val v = Array.fill(fm.n)(rng.nextDouble() * 2 - 1)
      val expect = fm.materialize.tmv(v)
      val got = fm.xtv(v)
      expect.zip(got).foreach { case (e, g) => assert(math.abs(e - g) < 1e-8, s"seed $seed") }
    }
  }

  test("xv (right multiplication) matches dense") {
    for (seed <- 0 until 15) {
      val fm = randomMatrix(seed + 300)
      val rng = new Random(seed)
      val a = Array.fill(fm.m)(rng.nextDouble() * 2 - 1)
      val expect = fm.materialize.mv(a)
      val got = fm.xv(a)
      expect.zip(got).foreach { case (e, g) => assert(math.abs(e - g) < 1e-8, s"seed $seed") }
    }
  }

  test("clusterRanges partition the rows contiguously") {
    for (seed <- 0 until 10) {
      val fm = randomMatrix(seed + 400)
      val ranges = fm.clusterRanges
      assert(ranges.map(_._2).sum == fm.n)
      ranges.sliding(2).foreach {
        case Array((s1, l1), (s2, _)) => assert(s1 + l1 == s2)
        case _                        =>
      }
      assert(ranges.head._1 == 0)
    }
  }

  test("cluster rows share all attribute values except the drill-down attr") {
    val fm = randomMatrix(5)
    val lastHier = fm.hiers.last
    fm.clusterRanges.foreach { case (s, l) =>
      val tuples = (s until s + l).map { i =>
        val c = coords(fm, i)
        fm.hiers.indices.flatMap(h => fm.hiers(h).rows(c(h))).toVector
      }
      val prefixLen = tuples.head.size - 1
      assert(tuples.map(_.take(prefixLen)).distinct.size == 1 || lastHier.depth == 1)
    }
  }

  // Among these seeds, some have 3 hierarchies and a column on a non-last
  // attribute of the last one: constant inside a cluster, but not across the
  // last hierarchy's parent blocks.
  private val gramSeeds = 500 until 520

  private def denseClusterGrams(fm: FactorizedMatrix, x: Mat): Array[Mat] =
    fm.clusterRanges.map { case (s, l) =>
      val xi = Mat.zeros(l, fm.m)
      for (r <- 0 until l; j <- 0 until fm.m) xi(r, j) = x(s + r, j)
      xi.t * xi
    }

  test("foreachClusterGram matches dense per-cluster grams") {
    assert(gramSeeds.exists { seed => val fm = randomMatrix(seed); fm.H == 3 && fm.hiers.last.depth >= 2 })
    for (seed <- gramSeeds) {
      val fm = randomMatrix(seed)
      val x = fm.materialize
      val expect = denseClusterGrams(fm, x)
      for (bk <- Seq(new FactorizedBackend(fm), new DenseBackend(x, fm.clusterRanges))) {
        var seen = 0
        bk.foreachClusterGram { (i, g) =>
          assert(g.maxAbsDiff(expect(i)) < 1e-8, s"${bk.getClass.getSimpleName} cluster $i seed $seed")
          seen += 1
        }
        assert(seen == fm.numClusters)
      }
    }
  }

  test("blockGrams rebuilds every cluster gram as D_b + U_i C_b U_i^T") {
    for (seed <- gramSeeds) {
      val fm = randomMatrix(seed)
      val m = fm.m
      val x = fm.materialize
      val expect = denseClusterGrams(fm, x)
      val bg = fm.blockGrams
      assert(bg.numBlocks == fm.blocks.size && bg.rank2)
      val denseBg = new DenseBackend(x, fm.clusterRanges).blockGrams
      assert(denseBg.numBlocks == fm.numClusters && !denseBg.rank2)
      expect.indices.foreach { i =>
        val b = bg.blockOf(i)
        val u = bg.u.slice(i * m, (i + 1) * m)
        val sb = bg.s(b)
        val rebuilt = Mat.zeros(m, m)
        for (j <- 0 until m; k <- 0 until m)
          rebuilt(j, k) = bg.d(b)(j * m + k) + bg.len(b) * u(j) * u(k) + u(j) * sb(k) + sb(j) * u(k)
        assert(rebuilt.maxAbsDiff(expect(i)) < 1e-8, s"cluster $i seed $seed")
        assert(new Mat(m, m, denseBg.d(denseBg.blockOf(i))).maxAbsDiff(expect(i)) == 0.0)
      }
    }
  }

  test("clusterXtv matches dense per-cluster left multiplication") {
    for (seed <- 0 until 10) {
      val fm = randomMatrix(seed + 600)
      val rng = new Random(seed)
      val v = Array.fill(fm.n)(rng.nextDouble() * 2 - 1)
      val bk = new DenseBackend(fm.materialize, fm.clusterRanges)
      val expect = bk.clusterXtv(v)
      val got = fm.clusterXtv(v)
      assert(got.length == fm.numClusters * fm.m)
      expect.zip(got).foreach { case (e, g) => assert(math.abs(e - g) < 1e-8, s"seed $seed") }
    }
  }

  test("row gives the materialized row and the cluster whose range holds it, on both backends") {
    for (seed <- 0 until 10) {
      val fm = randomMatrix(seed + 750)
      val x = fm.materialize
      val dense = new DenseBackend(x, fm.clusterRanges)
      val (a, b) = (new Array[Double](fm.m), new Array[Double](fm.m))
      for (r <- 0 until fm.n) {
        val i = fm.row(r, a)
        val (start, len) = fm.clusterRanges(i)
        assert(r >= start && r < start + len, s"row $r cluster $i seed $seed")
        assert(dense.row(r, b) == i, s"row $r seed $seed")
        (0 until fm.m).foreach(j => assert(a(j) == x(r, j) && b(j) == x(r, j), s"row $r col $j seed $seed"))
      }
    }
  }

  test("clusterXa matches dense per-cluster right multiplication") {
    for (seed <- 0 until 10) {
      val fm = randomMatrix(seed + 700)
      val rng = new Random(seed)
      val as = Array.fill(fm.numClusters * fm.m)(rng.nextDouble() * 2 - 1)
      val bk = new DenseBackend(fm.materialize, fm.clusterRanges)
      val expect = bk.clusterXa(as)
      val got = fm.clusterXa(as)
      expect.zip(got).foreach { case (e, g) => assert(math.abs(e - g) < 1e-8, s"seed $seed") }
    }
  }

  test("gram of the Figure 3 example has the expected redundancy structure") {
    // Two times, geo = district -> village as in the paper's Figure 3.
    val time = HierRelation("time", Seq("t"), Seq(Seq("t1"), Seq("t2")))
    val geo = HierRelation("geo", Seq("d", "v"),
      Seq(Seq("d1", "v1"), Seq("d1", "v2"), Seq("d2", "v3")))
    val f = Map("t1" -> 1.0, "t2" -> 2.0, "d1" -> 3.0, "d2" -> 4.0,
      "v1" -> 5.0, "v2" -> 6.0, "v3" -> 7.0)
    val cols = Vector(
      FeatureColumn("t", 0, 0, f),
      FeatureColumn("d", 1, 0, f),
      FeatureColumn("v", 1, 1, f))
    val fm = new FactorizedMatrix(Vector(time, geo), cols)
    assert(fm.n == 6)
    // col_d . col_v duplicated once per time value: (TOTAL_T) * sum_rows d*v
    val expected = 2.0 * (3 * 5 + 3 * 6 + 4 * 7)
    assert(math.abs(fm.gram(1, 2) - expected) < 1e-12)
    assert(fm.gram.maxAbsDiff(fm.materialize.t * fm.materialize) < 1e-9)
  }

  test("single hierarchy, single attribute degenerates to one cluster") {
    val h = HierRelation("g", Seq("g"), (0 until 7).map(i => Seq(s"g$i")))
    val fm = new FactorizedMatrix(Vector(h), Vector(FeatureColumn.Intercept))
    assert(fm.numClusters == 1)
    assert(fm.clusterRanges.toSeq == Seq((0, 7)))
    assert(fm.gram(0, 0) == 7.0)
  }
}
