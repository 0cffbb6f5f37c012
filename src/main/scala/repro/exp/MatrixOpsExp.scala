package repro.exp

import repro.core.fmatrix.FactorizedMatrix
import repro.core.linalg.Mat
import repro.core.model.{DenseBackend, FactorizedBackend}
import repro.synth.DatasetSynth
import scala.util.Random

/** Figure 7 (matrix operations) and Figure 15 (per-cluster variants):
  * factorised implementations vs the dense "Lapack" implementations over
  * the fully materialized matrix, varying the number of hierarchies d.
  * X has shape w^d x (3 d) with w = 10, as in the paper. Every cell is the
  * median of 5 timings, each after a GC (`Timing.medianMs`): single
  * timings of the same code spread 0.66x-2.29x at d = 6.
  */
object MatrixOpsExp {

  final case class OpRow(d: Int, op: String, naiveMs: Double, factMs: Double) {
    def speedup: Double = if (factMs > 0) naiveMs / factMs else Double.NaN
  }

  /** Largest d for which the dense matrix is materialized (memory bound). */
  def run(ds: Seq[Int], w: Int = 10, naiveMaxRows: Long = 2000000L, seed: Long = 5): Vector[OpRow] = {
    val rows = Vector.newBuilder[OpRow]
    for (d <- ds) {
      val fm = DatasetSynth.benchMatrix(d, w, 3, seed)
      val n = fm.n; val m = fm.m
      val rng = new Random(seed + d)
      val naiveOk = n.toLong <= naiveMaxRows

      // materialization: building the dense matrix vs building the f-rep.
      val (_, factBuildMs) = Timing.medianMs(DatasetSynth.benchMatrix(d, w, 3, seed))
      val (xOpt, natBuildMs) =
        if (naiveOk) { val (x, t) = Timing.medianMs(fm.materialize); (Some(x), t) }
        else (None, Double.NaN)
      rows += OpRow(d, "materialize", natBuildMs, factBuildMs)

      // gram matrix
      val (_, factGramMs) = Timing.medianMs(fm.gram)
      val natGramMs = xOpt.map(x => Timing.medianMs(x.t * x)._2).getOrElse(Double.NaN)
      rows += OpRow(d, "gram", natGramMs, factGramMs)

      // left multiplication: (1 x n) . X
      val v = Array.fill(n)(rng.nextDouble())
      val (_, factLeftMs) = Timing.medianMs(fm.xtv(v))
      val natLeftMs = xOpt.map(x => Timing.medianMs(x.tmv(v))._2).getOrElse(Double.NaN)
      rows += OpRow(d, "leftMult", natLeftMs, factLeftMs)

      // right multiplication: X . (m x 1)
      val a = Array.fill(m)(rng.nextDouble())
      val (_, factRightMs) = Timing.medianMs(fm.xv(a))
      val natRightMs = xOpt.map(x => Timing.medianMs(x.mv(a))._2).getOrElse(Double.NaN)
      rows += OpRow(d, "rightMult", natRightMs, factRightMs)
    }
    rows.result()
  }

  /** Figure 15: the per-cluster operations (cluster gram, per-cluster left
    * and right multiplication) — clusters are the 10^(d-1) sibling blocks.
    */
  def runClusterOps(ds: Seq[Int], w: Int = 10, naiveMaxRows: Long = 2000000L, seed: Long = 6): Vector[OpRow] = {
    val rows = Vector.newBuilder[OpRow]
    for (d <- ds) {
      val fm = DatasetSynth.benchMatrix(d, w, 3, seed)
      val n = fm.n; val m = fm.m; val g = fm.numClusters
      val rng = new Random(seed + d)
      val naiveOk = n.toLong <= naiveMaxRows
      val denseBk = if (naiveOk) Some(new DenseBackend(fm.materialize, fm.clusterRanges)) else None

      val (_, factCgMs) = Timing.medianMs(new FactorizedBackend(fm).foreachClusterGram((_, _) => ()))
      val natCgMs = denseBk.map(bk => Timing.medianMs(bk.foreachClusterGram((_, _) => ()))._2).getOrElse(Double.NaN)
      rows += OpRow(d, "clusterGram", natCgMs, factCgMs)

      val v = Array.fill(n)(rng.nextDouble())
      val (_, factClMs) = Timing.medianMs(fm.clusterXtv(v))
      val natClMs = denseBk.map(bk => Timing.medianMs(bk.clusterXtv(v))._2).getOrElse(Double.NaN)
      rows += OpRow(d, "clusterLeftMult", natClMs, factClMs)

      val as = Array.fill(g * m)(rng.nextDouble())
      val (_, factCrMs) = Timing.medianMs(fm.clusterXa(as))
      val natCrMs = denseBk.map(bk => Timing.medianMs(bk.clusterXa(as))._2).getOrElse(Double.NaN)
      rows += OpRow(d, "clusterRightMult", natCrMs, factCrMs)
    }
    rows.result()
  }

  def printRows(title: String, rows: Seq[OpRow]): Unit =
    Timing.printTable(title,
      Seq("d", "op", "lapack_ms", "factorized_ms", "speedup"),
      rows.map(r => Seq(r.d.toString, r.op, Timing.f2(r.naiveMs), Timing.f2(r.factMs),
        if (r.naiveMs.isNaN) "n/a" else Timing.f2(r.speedup) + "x")))
}
