package repro.core

import repro.SparkSpec
import repro.core.linalg.Mat
import scala.util.Random

class MatSpec extends SparkSpec {

  private def rand(rows: Int, cols: Int, seed: Long): Mat = {
    val rng = new Random(seed)
    new Mat(rows, cols, Array.fill(rows * cols)(rng.nextDouble() * 2 - 1))
  }

  test("zeros and eye") {
    val z = Mat.zeros(3, 4)
    assert(z.a.forall(_ == 0.0))
    val i = Mat.eye(3)
    assert(i(0, 0) == 1.0 && i(1, 1) == 1.0 && i(0, 1) == 0.0)
  }

  test("fromRows round trips") {
    val m = Mat.fromRows(Seq(Seq(1.0, 2.0), Seq(3.0, 4.0)))
    assert(m(0, 1) == 2.0 && m(1, 0) == 3.0)
  }

  test("transpose is an involution") {
    val m = rand(4, 7, 1)
    assert(m.t.t.maxAbsDiff(m) == 0.0)
  }

  test("matrix multiply matches hand computation") {
    val a = Mat.fromRows(Seq(Seq(1.0, 2.0), Seq(3.0, 4.0)))
    val b = Mat.fromRows(Seq(Seq(5.0, 6.0), Seq(7.0, 8.0)))
    val c = a * b
    assert(c(0, 0) == 19.0 && c(0, 1) == 22.0 && c(1, 0) == 43.0 && c(1, 1) == 50.0)
  }

  test("multiply is associative (random)") {
    for (seed <- 0 until 5) {
      val a = rand(3, 4, seed); val b = rand(4, 5, seed + 10); val c = rand(5, 2, seed + 20)
      assert((((a * b) * c).maxAbsDiff(a * (b * c))) < 1e-9)
    }
  }

  test("mv agrees with matrix multiply") {
    val m = rand(5, 3, 2)
    val x = Array(1.0, -2.0, 0.5)
    val viaMat = m * Mat.colVec(x)
    val via = m.mv(x)
    (0 until 5).foreach(i => assert(math.abs(viaMat(i, 0) - via(i)) < 1e-12))
  }

  test("tmv agrees with transpose-then-mv") {
    val m = rand(6, 4, 3)
    val v = Array.fill(6)(0.5)
    val expect = m.t.mv(v)
    val got = m.tmv(v)
    expect.zip(got).foreach { case (e, g) => assert(math.abs(e - g) < 1e-12) }
  }

  test("add, subtract, scale") {
    val a = rand(3, 3, 4); val b = rand(3, 3, 5)
    assert(((a + b) - b).maxAbsDiff(a) < 1e-12)
    assert((a * 2.0).maxAbsDiff(a + a) < 1e-12)
  }

  test("trace of identity") { assert(Mat.eye(7).trace == 7.0) }

  test("inverse recovers identity (random SPD-ish)") {
    for (seed <- 0 until 10) {
      val a = rand(5, 5, seed + 100)
      val spd = a.t * a + (Mat.eye(5) * 0.5) // well-conditioned
      val inv = spd.inverse
      assert((spd * inv).maxAbsDiff(Mat.eye(5)) < 1e-8)
      assert((inv * spd).maxAbsDiff(Mat.eye(5)) < 1e-8)
    }
  }

  test("inverse of singular matrix throws") {
    val sing = Mat.fromRows(Seq(Seq(1.0, 2.0), Seq(2.0, 4.0)))
    intercept[ArithmeticException](sing.inverse)
  }

  test("ridgeInverse handles singular matrices") {
    val sing = Mat.fromRows(Seq(Seq(1.0, 2.0), Seq(2.0, 4.0)))
    val inv = Mat.ridgeInverse(sing, 1e-6)
    assert(inv.rows == 2) // no throw; approximately a pseudo-inverse
  }

  test("scaledRidgeInverse follows a rescaling of the columns and inverts a well-conditioned matrix") {
    val rng = new scala.util.Random(3)
    val n = 4
    val base = new Mat(n, n, Array.fill(n * n)(rng.nextGaussian()))
    val spd = base.t * base + Mat.eye(n)
    assert((spd * Mat.scaledRidgeInverse(spd, 1e-12)).maxAbsDiff(Mat.eye(n)) < 1e-9)
    val e = Array(1e-3, 1.0, 1e3, 7.0)
    val scaled = new Mat(n, n, Array.tabulate(n * n)(k => e(k / n) * spd.a(k) * e(k % n)))
    val want = Mat.scaledRidgeInverse(spd, 1e-2).a // a ridge large enough to show
    val got = Mat.scaledRidgeInverse(scaled, 1e-2).a
    (0 until n * n).foreach { k =>
      val w = want(k) / (e(k / n) * e(k % n))
      assert(math.abs(got(k) - w) <= 1e-12 * math.abs(w), s"entry $k: ${got(k)} vs $w")
    }
  }

  test("logDet matches log(det) for 2x2") {
    val m = Mat.fromRows(Seq(Seq(3.0, 1.0), Seq(1.0, 2.0))) // det 5
    assert(math.abs(Mat.logDet(m) - math.log(5.0)) < 1e-10)
  }

  test("logDet of identity is 0") { assert(math.abs(Mat.logDet(Mat.eye(6))) < 1e-12) }

  test("logDet scales with dimension for c*I") {
    val m = Mat.eye(4) * 2.0
    assert(math.abs(Mat.logDet(m) - 4 * math.log(2.0)) < 1e-10)
  }

  test("outer product") {
    val o = Mat.outer(Array(1.0, 2.0, 3.0))
    assert(o(0, 0) == 1.0 && o(1, 2) == 6.0 && o(2, 1) == 6.0)
  }

  test("dot product") { assert(Mat.dot(Array(1.0, 2.0), Array(3.0, 4.0)) == 11.0) }

  test("shape mismatches are rejected") {
    intercept[IllegalArgumentException](rand(2, 3, 0) * rand(2, 3, 1))
    intercept[IllegalArgumentException](rand(2, 3, 0).mv(Array(1.0, 2.0)))
    intercept[IllegalArgumentException](Mat.dot(Array(1.0), Array(1.0, 2.0)))
    intercept[IllegalArgumentException](rand(2, 3, 0).trace)
  }
}
