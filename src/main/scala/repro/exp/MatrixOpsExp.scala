package repro.exp

import repro.core.fmatrix.FactorizedMatrix
import repro.core.linalg.Mat
import repro.core.model.DenseBackend
import repro.synth.DatasetSynth
import scala.util.Random

/** Figure 7 (matrix operations) and Figure 15 (per-cluster variants):
  * factorised implementations vs the dense "Lapack" implementations over
  * the fully materialized matrix, varying the number of hierarchies d.
  * X has shape w^d x (3 d) with w = 10, as in the paper.
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
      val (_, factBuildMs) = Timing.ms(DatasetSynth.benchMatrix(d, w, 3, seed))
      val (xOpt, natBuildMs) =
        if (naiveOk) { val (x, t) = Timing.ms(fm.materialize); (Some(x), t) }
        else (None, Double.NaN)
      rows += OpRow(d, "materialize", natBuildMs, factBuildMs)

      // gram matrix
      val (_, factGramMs) = Timing.ms(fm.gram)
      val natGramMs = xOpt.map(x => Timing.ms(x.t * x)._2).getOrElse(Double.NaN)
      rows += OpRow(d, "gram", natGramMs, factGramMs)

      // left multiplication: (1 x n) . X
      val v = Array.fill(n)(rng.nextDouble())
      val (_, factLeftMs) = Timing.ms(fm.xtv(v))
      val natLeftMs = xOpt.map(x => Timing.ms(x.tmv(v))._2).getOrElse(Double.NaN)
      rows += OpRow(d, "leftMult", natLeftMs, factLeftMs)

      // right multiplication: X . (m x 1)
      val a = Array.fill(m)(rng.nextDouble())
      val (_, factRightMs) = Timing.ms(fm.xv(a))
      val natRightMs = xOpt.map(x => Timing.ms(x.mv(a))._2).getOrElse(Double.NaN)
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

      val (_, factCgMs) = Timing.ms { fm.foreachClusterGram((_, _) => ()) }
      val natCgMs = denseBk.map(bk => Timing.ms(bk.foreachClusterGram((_, _) => ()))._2).getOrElse(Double.NaN)
      rows += OpRow(d, "clusterGram", natCgMs, factCgMs)

      val v = Array.fill(n)(rng.nextDouble())
      val (_, factClMs) = Timing.ms(fm.clusterXtv(v))
      val natClMs = denseBk.map(bk => Timing.ms(bk.clusterXtv(v))._2).getOrElse(Double.NaN)
      rows += OpRow(d, "clusterLeftMult", natClMs, factClMs)

      val as = Array.fill(g * m)(rng.nextDouble())
      val (_, factCrMs) = Timing.ms(fm.clusterXa(as))
      val natCrMs = denseBk.map(bk => Timing.ms(bk.clusterXa(as))._2).getOrElse(Double.NaN)
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
