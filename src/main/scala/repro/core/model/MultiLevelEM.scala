package repro.core.model

import java.util.concurrent.{ForkJoinTask, RecursiveAction}
import repro.core.fmatrix.BlockGrams
import repro.core.linalg.Mat

/** Fitted multi-level model (Section 3.2 / Appendix D):
  *   y_i = X_i beta + Z_i b_i + eps_i,  b_i ~ N(0, Sigma), eps ~ N(0, s2 I)
  * with Z_i = X_i[:, reCols] — the paper's tunable random-effect matrix
  * (Section 3.3.4); `reCols` defaults to all columns (Z_i = X_i).
  * `bs` holds the posterior means b_i in one flat buffer: b_i is
  * `bs(i*s until (i+1)*s)` with s = reCols.length. `iterations` counts
  * the EM iterations run: the cap, or fewer once the fit converged.
  * `ridgeEscalations` counts the E-step inverses (one per parent block per
  * iteration) that needed more than the base ridge. `logLikelihoods(k)` is
  * the marginal log-likelihood at the parameters after k iterations
  * (k = 0: the OLS start), from the sweep of iteration k + 1; the last is
  * one iteration behind the fit's parameters.
  */
final case class MultiLevelFit(
    beta: Array[Double],
    sigma: Mat,
    sigma2: Double,
    bs: Array[Double],
    reCols: Array[Int],
    iterations: Int,
    ridgeEscalations: Int,
    logLikelihoods: Array[Double],
)

/** y as its observed rows: `values(k)` at matrix row `rows(k)` (distinct),
  * `default` at every other row (Section 5.1.4's empty groups).
  */
final case class ObservedY(rows: Array[Int], values: Array[Double], default: Double)

object ObservedY {
  /** y given at every row, as its nonzero rows: the same arithmetic as
    * those rows given with a default of 0.
    */
  def dense(y: Array[Double]): ObservedY = {
    val rows = Array.range(0, y.length).filter(y(_) != 0.0)
    ObservedY(rows, rows.map(y), 0.0)
  }
}

/** y's statistics in the frame of y - c 1 (c = `y.default`), which is zero
  * off the observed rows: one pass over them with `MLBackend.row`. X's
  * first column is the intercept, so y's beta is `shifted(beta)` there.
  */
private[model] final class YStats(bk: MLBackend, y: ObservedY) {
  private val (m, c) = (bk.m, y.default)
  private val x = new Array[Double](m)
  /** X^T (y - c 1), X_i^T (y_i - c 1) (m per cluster) and |y - c 1|^2. */
  val xty = new Array[Double](m)
  val xiy = new Array[Double](bk.numClusters * m)
  var yy = 0.0
  y.rows.indices.foreach { k =>
    val v = y.values(k) - c
    val off = bk.row(y.rows(k), x) * m
    var j = 0
    while (j < m) { xty(j) += v * x(j); xiy(off + j) += v * x(j); j += 1 }
    yy += v * v
  }

  def shifted(beta: Array[Double]): Array[Double] = if (c == 0.0) beta else beta.updated(0, beta(0) - c)

  /** |y - X beta|^2 from b = shifted(beta): with every row observed, a
    * second pass; else sum_obs [(y_r - c - x_r b)^2 - (x_r b)^2] + b^T X^T X b,
    * whose sum is |y - c 1|^2 - 2 b^T X^T (y - c 1).
    */
  def rss(b: Array[Double], gram: => Mat): Double =
    if (y.rows.length < bk.n) yy - 2.0 * Mat.dot(b, xty) + Mat.dot(b, gram.mv(b))
    else y.rows.indices.foldLeft(0.0) { (acc, k) =>
      bk.row(y.rows(k), x)
      val d = y.values(k) - c - Mat.dot(x, b)
      acc + d * d
    }
}

/** EM training for the multi-level linear model over any MLBackend.
  *
  * The loop follows Appendix D. y enters only through statistics of its
  * observed rows, taken once per fit (YStats): X^T y, every X_i^T y_i and
  * the initial residual sum of squares. Every per-iteration term is then a
  * product of the gram, the cluster grams G_i and these statistics, so the
  * loop touches no n-length array. Each iteration is one sweep over the
  * cluster grams' block-plus-rank-2 form (BlockEStep) and an m x m M-step.
  * beta solves y's own ridged normal equations; the residual terms use
  * y - c 1, as YStats does. With r = y - X beta and b~_i the
  * posterior mean b_i zero-padded to X's columns (Z_i b_i = X_i b~_i):
  *  - E-step input: Z_i^T r_i, the Z-slice of X_i^T y_i - G_i beta;
  *  - M-step: X^T Z b = sum_i G_i b~_i, beta = (X^T X)^{-1} (X^T y - X^T Z b);
  *  - r^T Z b = sum_i b~_i^T X_i^T y_i - beta^T X^T Z b;
  *  - |r|^2 is updated by Delta = beta_new - beta_old:
  *    |r_new|^2 = |r_old|^2 - 2 Delta^T (X^T y - X^T X beta_old) + Delta^T X^T X Delta.
  *    The expanded |y|^2 - 2 beta^T X^T y + beta^T X^T X beta would carry
  *    the rounding of |y|^2 into |r|^2, losing log10(|y|^2 / |r|^2) digits
  *    (12 with y offset by 1e6 noise sd); the update's terms are of the
  *    size of the residual and of Delta.
  *
  * The same loop runs over the factorised representation and over the
  * materialized matrix: the backend supplies X's rows, the gram and the
  * cluster grams. Restricting the random effects to a column subset S
  * needs no extra backend support: Z_i^T r_i is the S-slice of X_i^T r_i
  * and Z_i^T Z_i is the S x S submatrix of the cluster gram. With no
  * iterations the fit is OLS (LinearModel).
  *
  * Every floor and ridge is relative to the data it guards, so fitting
  * `c * y` gives `c *` the predictions of fitting `y`.
  *
  * `iters` is a cap. Each sweep also gives the marginal log-likelihood at
  * the parameters it runs at (`logLikelihood`'s formula, with the loop's
  * |r|^2), and the fit stops after the M-step of the sweep whose lnL moved
  * by at most `Tolerance` per row from the sweep before. EM never lowers
  * lnL, and lnL(c y) = lnL(y) - n log c, so the change per row is the same
  * for `c * y` as for `y`; a change relative to lnL is not, and has no
  * scale near lnL = 0. A sweep whose lnL is not finite never stops the fit.
  */
object MultiLevelEM {

  /** The per-row change of the log-likelihood between two sweeps at which
    * a fit has converged: 1e-10 of a nat per row.
    */
  final val Tolerance = 1e-10

  def fit(
      bk: MLBackend,
      y: Array[Double],
      iters: Int = 20,
      ridge: Double = 1e-8,
      reCols: Option[Array[Int]] = None,
  ): MultiLevelFit = {
    require(y.length == bk.n, s"y length ${y.length} != n ${bk.n}")
    fit(bk, ObservedY.dense(y), iters, ridge, reCols)
  }

  def fit(bk: MLBackend, y: ObservedY, iters: Int, ridge: Double, reCols: Option[Array[Int]]): MultiLevelFit = {
    val m = bk.m
    val g = bk.numClusters
    val re: Array[Int] = reCols.getOrElse(Array.range(0, m))
    require(re.forall(j => j >= 0 && j < m), "bad random-effect column index")
    val s = re.length

    // Precomputed once: X^T X (+ inverse), the cluster grams, and y's
    // statistics.
    val gram = bk.gram
    val gramInv = Mat.scaledRidgeInverse(gram, ridge)
    val est = new BlockEStep(bk.blockGrams, m, re, ridge)
    val ys = new YStats(bk, y)
    val xty = Array.tabulate(m)(j => ys.xty(j) + y.default * gram(j, 0)) // X^T y, X^T 1 = gram column 0
    val yScale = if (ys.yy > 0) ys.yy / bk.n else 1.0

    // Init: OLS beta; residual variance; Sigma = sigma2 * I.
    var beta = gramInv.mv(xty)
    var rr = ys.rss(ys.shifted(beta), gram) // |y - X beta|^2, updated per iteration
    var sigma2 = math.max(rr / bk.n, 1e-9 * yScale)
    var sigma = Mat.eye(s) * sigma2
    val bs = new Array[Double](g * s)
    val lnL = Array.newBuilder[Double]
    var prev = Double.NaN // the last sweep's lnL

    var it = 0
    var converged = false
    while (it < iters && !converged) {
      // E-step: posterior means into bs, with the M-step's Sigma and trace
      // terms, X^T Z b, b^T X^T y and the log-likelihood at these parameters
      val sigmaInv = Mat.ridgeInverse(sigma, ridge)
      val old = ys.shifted(beta)
      val trAcc = est.run(ys.xiy, old, sigma2, sigmaInv.a, bs)
      val ll = logLikelihood(bk.n, sigma2, rr, est)
      converged = math.abs(ll - prev) <= Tolerance * bk.n
      lnL += ll
      prev = ll

      // M-step
      val xtrOld = sub(ys.xty, gram.mv(old)) // X^T r at the old beta
      val next = gramInv.mv(sub(xty, est.xtzb))
      val delta = sub(next, beta)
      rr += Mat.dot(delta, gram.mv(delta)) - 2.0 * Mat.dot(delta, xtrOld)
      beta = next
      sigma = new Mat(s, s, est.sigAcc.map(_ / g))
      val rzb = est.bty - Mat.dot(ys.shifted(beta), est.xtzb)
      sigma2 = math.max((rr + trAcc - 2.0 * rzb) / bk.n, 1e-12 * yScale)
      it += 1
    }
    MultiLevelFit(beta, sigma, sigma2, bs, re, it, est.escalations, lnL.result())
  }

  /** yhat = X beta + Z b (fixed + random effects) at every row. */
  def predict(bk: MLBackend, fit: MultiLevelFit): Array[Double] = predict(bk, fit, Array.range(0, bk.n))

  /** yhat at matrix rows `rows`: x_r^T beta + z_r^T b_i, i the cluster of row r. */
  def predict(bk: MLBackend, fit: MultiLevelFit, rows: Array[Int]): Array[Double] = {
    val x = new Array[Double](bk.m)
    val s = fit.reCols.length
    rows.map { r =>
      val i = bk.row(r, x)
      var v = Mat.dot(x, fit.beta)
      var k = 0
      while (k < s) { v += x(fit.reCols(k)) * fit.bs(i * s + k); k += 1 }
      v
    }
  }

  /** Marginal Gaussian log-likelihood, y_i ~ N(X_i beta, Z_i Sigma Z_i^T +
    * sigma2 I), from one E-step sweep at the fit's parameters and `ridge`
    * (DESIGN.md, "Factorised E-step"). With W_i and P_b as in BlockEStep,
    * lnL = -1/2 [n log(2 pi sigma2) + sum_i (log det W_i - log det P_b)
    *   + (|y - X beta|^2 - sum_i mu_i^T Z_i^T r_i) / sigma2]. Used for AIC.
    */
  def logLikelihood(bk: MLBackend, y: ObservedY, fit: MultiLevelFit, ridge: Double = 1e-8): Double = {
    val sigmaInv = Mat.ridgeInverse(fit.sigma, ridge)
    val est = new BlockEStep(bk.blockGrams, bk.m, fit.reCols, ridge)
    val ys = new YStats(bk, y)
    val b = ys.shifted(fit.beta)
    est.run(ys.xiy, b, fit.sigma2, sigmaInv.a, new Array[Double](bk.numClusters * fit.reCols.length))
    logLikelihood(bk.n, fit.sigma2, ys.rss(b, bk.gram), est)
  }

  /** lnL after `est`'s sweep at sigma2, with rr = |y - X beta|^2. */
  private def logLikelihood(n: Int, sigma2: Double, rr: Double, est: BlockEStep): Double =
    -0.5 * (n * math.log(2 * math.Pi * sigma2) + est.logDetWP + (rr - est.muXtr) / sigma2)

  /** AIC = 2k - 2 lnL; k = fixed effects + Sigma parameters + sigma2. */
  def aic(bk: MLBackend, y: ObservedY, fit: MultiLevelFit, ridge: Double = 1e-8): Double = {
    val s = fit.reCols.length
    val k = bk.m + s * (s + 1) / 2 + 1
    2.0 * k - 2.0 * logLikelihood(bk, y, fit, ridge)
  }

  private def sub(a: Array[Double], b: Array[Double]): Array[Double] = {
    val out = new Array[Double](a.length)
    var i = 0; while (i < a.length) { out(i) = a(i) - b(i); i += 1 }; out
  }
}

/** Fixed-size chunks of the EM's per-cluster and per-block loops, run as
  * tasks of the current ForkJoinPool: the JVM's common pool, unless the
  * fit itself runs inside another pool. A loop of one chunk runs on the
  * calling thread.
  *
  * Each chunk writes only its own clusters' outputs and accumulates its
  * own partial sums; the caller adds the partials in chunk order. The chunk
  * length depends on the matrix's shape alone, never on the number of
  * threads, so a fit gives the same bits on one thread as on many.
  *
  * A cluster's per-block sums (`accB`, `pB`, `qB`, `bSum`, `ubSum` in
  * BlockEStep) go to its chunk's copy, except when every cluster is
  * a block of its own (`ownBlocks`: the dense backend, or a factorised
  * matrix of one hierarchy). Then no two chunks touch the same block, they
  * add into the shared sums directly, and the per-block loops are chunked
  * too. With shared blocks a chunk holds at least as many clusters as
  * there are blocks, so all the copies together hold no more entries than
  * one block's sums per cluster.
  */
private final class Chunks(bg: BlockGrams) {
  private val g = bg.blockOf.length
  private val nb = bg.numBlocks
  val ownBlocks: Boolean = nb == g && bg.blockOf.indices.forall(i => bg.blockOf(i) == i)
  private val length = if (ownBlocks) Chunks.Size else math.max(Chunks.Size, nb)
  /** Chunks of the cluster loops; the block loops have no more. */
  val count: Int = Chunks.count(g, length)
  val blockCount: Int = Chunks.count(nb, length)

  /** body(chunk, from, until) over the chunks of the clusters. */
  def clusters(body: (Int, Int, Int) => Unit): Unit = Chunks.foreach(g, length, body)
  /** body(chunk, from, until) over the chunks of the blocks. */
  def blocks(body: (Int, Int, Int) => Unit): Unit = Chunks.foreach(nb, length, body)
}

private object Chunks {
  /** Clusters per chunk: ~0.25 ms of E-step work at s = 6, far above a
    * task's cost. A constant, not a setting: the chunk boundaries fix the
    * order in which partial sums are added.
    */
  final val Size = 1024

  def count(len: Int, length: Int): Int = math.max(1, (len + length - 1) / length)

  def foreach(len: Int, length: Int, body: (Int, Int, Int) => Unit): Unit = {
    val k = count(len, length)
    if (k == 1) body(0, 0, len)
    else
      ForkJoinTask.invokeAll(Array.tabulate[ForkJoinTask[_]](k) { c =>
        new RecursiveAction { def compute(): Unit = body(c, c * length, math.min(len, (c + 1) * length)) }
      }: _*)
  }

  /** a += b, entry by entry. */
  def addInto(a: Array[Double], b: Array[Double]): Unit = {
    var i = 0; while (i < a.length) { a(i) += b(i); i += 1 }
  }
}

/** One EM iteration's sweep over the cluster grams in their
  * block-plus-rank-2 form (BlockGrams),
  *   G_i = D_b + U_i C_b U_i^T = D_b + u_i (len_b u_i^T + s_b^T) + s_b u_i^T,
  * so a product with G_i costs O(m) per cluster plus O(m^2) per block
  * instead of O(m^2) per cluster. Random-effect vectors are in Z's columns
  * `re`, s per cluster; b~_i is b_i zero-padded to X's columns.
  *
  * The E-step's input, for r = y - X beta, is Z_i^T r_i: the Z-slice of
  * X_i^T y_i - G_i beta, from D_b beta and s_b^T beta once per block and
  * u_i^T beta (over all m columns) per cluster. The E-step then solves, in
  * Z's columns,
  *   W_i = G_i / sigma2 + Sigma^{-1} = A_b + U_i (C_b / sigma2) U_i^T,
  *   A_b = Sigma^{-1} + D_b / sigma2.
  * Each iteration inverts A_b once per parent block, with a ridge escalated
  * on failure. The ridge is relative to Sigma^{-1}, the part of A_b every
  * block shares: adding it to A_b adds it to every W_i alike, so both
  * backends regularise the same matrices, and since A_b >= Sigma^{-1} it
  * perturbs A_b no more than it perturbs Sigma^{-1}. Per cluster, Woodbury
  * gives
  *   V_i = W_i^{-1} = A_b^{-1} - [a t] K^{-1} [a t]^T,
  *   a = A_b^{-1} u_i,  t = A_b^{-1} s_b,  K = sigma2 C_b^{-1} + U_i^T A_b^{-1} U_i,
  * a 2 x 2 solve, so a cluster costs O(s^2) instead of an s x s inverse.
  * Without a rank-2 term (the dense backend: one block per cluster) V_i is
  * A_b^{-1} itself, and the rank-2 arithmetic is skipped. Running it on a
  * zero u_i and s_b gives the same numbers bit for bit, but adds ~4 s^2
  * flops per cluster to the dense inverse's ~2 s^3: at s = 6 the dense fit
  * took ~15% longer (5 of 5 interleaved runs, 4-core host), which would
  * flatter the factorised side in Figure 10.
  *
  * The M-step needs S = sum_i (V_i + mu_i mu_i^T), sum_i Tr(G_i (V_i +
  * mu_i mu_i^T)), X^T Z b = sum_i G_i b~_i and sum_i b~_i^T X_i^T y_i. All
  * come from per-cluster terms and per-block sums, combined once per block:
  *  - sum_{i in b} V_i = cnt_b A_b^{-1} - sum_{i in b} [a t] K^{-1} [a t]^T,
  *    and t is the block's, so a cluster adds mu mu^T - k11 a a^T to one
  *    s x s sum, k12 a to an s-vector and k22 to a scalar, with
  *    [[k11, k12], [k12, k22]] = K^{-1};
  *  - G_i = sigma2 (W_i - Sigma^{-1} - lambda_b I) gives Tr(G_i (V_i +
  *    mu_i mu_i^T)) = sigma2 (s - Tr((Sigma^{-1} + lambda_b I)(V_i + mu_i
  *    mu_i^T))) + sigma2 mu_i^T W_i mu_i, the last from W_i's block form:
  *    sigma2 mu^T A_b mu + len_b (u_i^T mu)^2 + 2 (u_i^T mu)(s_b^T mu).
  *    Taking Z_i^T r_i for sigma2 W_i mu_i would carry mu_i's rounding
  *    (DESIGN.md) into sigma2 to first order;
  *  - G_i b~_i is u_i (len_b u_i^T b~_i + s_b^T b~_i) per cluster, plus
  *    D_b sum_{i in b} b~_i + s_b sum_{i in b} u_i^T b~_i per block.
  *
  * For the log-likelihood the sweep also sums log det W_i - log det P_b,
  * P_b = Sigma^{-1} + lambda_b I. By the determinant lemma, with
  * det(C_b / sigma2) = -1 / sigma2^2, a cluster of a rank-2 block has
  * log det W_i = log det A_b + log(-det K) - 2 log sigma2, others
  * log det A_b. log det A_b comes from the pivots of A_b's inverse,
  * log det P_b once per ridge (one s x s elimination a sweep unless a
  * block escalates), and log(-det K) is one `log` per cluster. A running
  * product of the -det K, folded into its log when it left [1e-200, 1e200],
  * would save the `log`, but only some fits take the fold (COUNT y on
  * `sparse-cube`, not MEAN y), and the first to take it recompiled
  * `cluster` in the middle of a fit.
  *
  * `run` is one block loop (A_b^{-1}, t_b, D_b beta, s_b^T beta), one
  * cluster loop and one block loop (S, the trace, X^T Z b's block terms),
  * each in Chunks. The per-block and per-cluster steps are methods of their
  * own so the JIT compiles them after a few thousand calls rather than
  * waiting for an on-stack replacement of the loops; buffers are reused
  * across calls.
  */
private final class BlockEStep(bg: BlockGrams, m: Int, re: Array[Int], ridge: Double) {
  private val s = re.length
  private val ss = s * s
  private val nb = bg.numBlocks
  private val blockOf = bg.blockOf
  private val rank2 = bg.rank2
  private val u = bg.u
  private val len: Array[Double] = bg.len.map(_.toDouble)
  private val cnt: Array[Int] = {
    val c = new Array[Int](nb); blockOf.foreach(b => c(b) += 1); c
  }
  // The blocks sliced to Z's columns.
  private val dZ: Array[Double] = {
    val out = new Array[Double](nb * ss)
    var b = 0
    while (b < nb) {
      val d = bg.d(b)
      var j = 0
      while (j < s) { var k = 0; while (k < s) { out(b * ss + j * s + k) = d(re(j) * m + re(k)); k += 1 }; j += 1 }
      b += 1
    }
    out
  }
  private val sb: Array[Double] = if (rank2) bg.s.flatten else Array.emptyDoubleArray // nb x m
  private val r2 = if (rank2) nb else 0

  // Per block and iteration: A_b^{-1}, t_b = A_b^{-1} s_b, s_b^T t_b, the
  // ridge, D_b beta in Z's rows, s_b^T beta, and the cluster sums of
  // mu mu^T - k11 a a^T, k12 a, k22, b_i and u_i^T b~_i.
  private val aInv = new Array[Double](nb * ss)
  private val aB = new Array[Double](nb * ss) // A_b, with its ridge
  private val tZ = new Array[Double](r2 * s)
  private val stb = new Array[Double](r2)
  private val lambda = new Array[Double](nb)
  private val dv = new Array[Double](nb * s)
  private val sv = new Array[Double](r2)
  private val accB = new Array[Double](nb * ss)
  private val pB = new Array[Double](r2 * s)
  private val qB = new Array[Double](r2)
  private val bSum = new Array[Double](nb * s)
  private val ubSum = new Array[Double](r2)
  private val logDetA = new Array[Double](nb)
  /** Block inverses so far that needed more than the base ridge. */
  var escalations = 0
  /** After `run`: sum_i (V_i + mu_i mu_i^T). */
  val sigAcc = new Array[Double](ss)
  /** After `run`: X^T Z b = sum_i G_i b~_i. */
  val xtzb = new Array[Double](m)
  /** After `run`: sum_i b~_i^T X_i^T y_i. */
  var bty = 0.0
  /** After `run`: sum_i mu_i^T Z_i^T r_i. */
  var muXtr = 0.0
  /** After `run`: sum_i (log det W_i - log det P_b). */
  var logDetWP = 0.0
  private val chunks = new Chunks(bg)

  /** A chunk's partial sums and scratch. Chunk 0 adds into the totals, and
    * so does every chunk into the per-block sums when no two share a block.
    */
  private final class Part(c: Int) {
    private def copy(a: Array[Double]) = if (c == 0 || chunks.ownBlocks) a else new Array[Double](a.length)
    val accB: Array[Double] = copy(BlockEStep.this.accB)
    val pB: Array[Double] = copy(BlockEStep.this.pB)
    val qB: Array[Double] = copy(BlockEStep.this.qB)
    val bSum: Array[Double] = copy(BlockEStep.this.bSum)
    val ubSum: Array[Double] = copy(BlockEStep.this.ubSum)
    val sig: Array[Double] = if (c == 0) sigAcc else new Array[Double](ss)
    val xtzb: Array[Double] = if (c == 0) BlockEStep.this.xtzb else new Array[Double](m)
    var muXtr = 0.0 // sum_i mu_i^T Z_i^T r_i
    var by = 0.0    // sum_i b~_i^T X_i^T y_i
    var muWmu = 0.0 // sum_i sigma2 mu_i^T W_i mu_i
    var tr = 0.0
    var logDetK = 0.0 // sum_i log(-det K)
    var escalations = 0
    val wBuf = new Array[Double](ss)
    val invBuf = new Array[Double](ss)
    val xz = new Array[Double](s)
    val vx = new Array[Double](s)
    val aBuf = new Array[Double](s)
  }
  private val parts = Array.tabulate(chunks.count)(new Part(_))

  /** One sweep at the fixed effects `beta`: writes every cluster's
    * posterior mean into `mu` (flat, s per cluster), fills `sigAcc`, `xtzb`,
    * `bty`, `muXtr` and `logDetWP`, and returns
    * sum_i Tr(G_i (V_i + mu_i mu_i^T)). `xiy` holds X_i^T y_i, m per cluster.
    */
  def run(xiy: Array[Double], beta: Array[Double], sigma2: Double, sigmaInv: Array[Double],
          mu: Array[Double]): Double = {
    chunks.blocks { (c, from, until) =>
      val p = parts(c)
      p.escalations = 0
      var b = from
      while (b < until) { invertBlock(b, sigma2, sigmaInv, p); blockProducts(b, beta); b += 1 }
    }
    zero(accB, pB, qB, bSum, ubSum, xtzb)
    chunks.clusters { (c, from, until) =>
      val p = parts(c)
      if (p.accB ne accB) zero(p.accB, p.pB, p.qB, p.bSum, p.ubSum)
      if (c > 0) zero(p.xtzb)
      p.muXtr = 0.0
      p.by = 0.0
      p.muWmu = 0.0
      p.logDetK = 0.0
      var i = from
      while (i < until) { cluster(i, xiy, beta, sigma2, mu, p); i += 1 }
    }
    muXtr = parts(0).muXtr
    var by = parts(0).by
    var muWmu = parts(0).muWmu
    var c = 1
    while (c < chunks.count) {
      val p = parts(c)
      if (p.accB ne accB) {
        Chunks.addInto(accB, p.accB); Chunks.addInto(pB, p.pB); Chunks.addInto(qB, p.qB)
        Chunks.addInto(bSum, p.bSum); Chunks.addInto(ubSum, p.ubSum)
      }
      Chunks.addInto(xtzb, p.xtzb)
      muXtr += p.muXtr
      by += p.by
      muWmu += p.muWmu
      c += 1
    }
    bty = by
    logDetWP = logDets(sigma2, sigmaInv)
    zero(sigAcc)
    chunks.blocks { (c, from, until) =>
      val p = parts(c)
      if (c > 0) zero(p.sig, p.xtzb)
      var tr = 0.0
      var b = from
      while (b < until) { tr += addBlock(b, sigmaInv, p.sig); blockTerms(b, p.xtzb); b += 1 }
      p.tr = tr
    }
    var tr = parts(0).tr
    escalations += parts(0).escalations
    c = 1
    while (c < chunks.blockCount) {
      val p = parts(c)
      Chunks.addInto(sigAcc, p.sig)
      Chunks.addInto(xtzb, p.xtzb)
      tr += p.tr
      escalations += p.escalations
      c += 1
    }
    sigma2 * tr + muWmu
  }

  private def zero(as: Array[Double]*): Unit = as.foreach(java.util.Arrays.fill(_, 0.0))

  /** sum_i (log det W_i - log det P_b) from the cluster loop's log(-det K)
    * and the block loop's log det A_b; log det P_b once per run of blocks
    * with the same ridge.
    */
  private def logDets(sigma2: Double, sigmaInv: Array[Double]): Double = {
    var ld = if (rank2) -2.0 * blockOf.length * math.log(sigma2) else 0.0
    parts.foreach(ld += _.logDetK)
    var lam = Double.NaN
    var logDetP = 0.0
    var b = 0
    while (b < nb) {
      if (lambda(b) != lam) { lam = lambda(b); logDetP = Mat.logDet(new Mat(s, s, sigmaInv) + Mat.eye(s) * lam) }
      ld += cnt(b) * (logDetA(b) - logDetP)
      b += 1
    }
    ld
  }

  /** Adds block b's sum_{i in b} (V_i + mu_i mu_i^T) to `sig`; returns
    * its sum of s - Tr((Sigma^{-1} + lambda_b I)(V_i + mu_i mu_i^T)).
    */
  private def addBlock(b: Int, sigmaInv: Array[Double], sig: Array[Double]): Double = {
    val off = b * ss
    val c = cnt(b).toDouble
    var tr = c * s
    var j = 0
    while (j < s) {
      var k = 0
      while (k < s) {
        var v = c * aInv(off + j * s + k) + accB(off + j * s + k)
        if (rank2) {
          val tj = tZ(b * s + j); val tk = tZ(b * s + k)
          v -= pB(b * s + j) * tk + tj * pB(b * s + k) + qB(b) * tj * tk
        }
        sig(j * s + k) += v
        tr -= sigmaInv(k * s + j) * v
        if (j == k) tr -= lambda(b) * v
        k += 1
      }
      j += 1
    }
    tr
  }

  /** Adds block b's D_b (sum_{i in b} b~_i) + s_b (sum_{i in b} u_i^T b~_i) to `out`. */
  private def blockTerms(b: Int, out: Array[Double]): Unit = {
    val d = bg.d(b)
    var j = 0
    while (j < m) {
      var acc = 0.0; var k = 0
      while (k < s) { acc += d(j * m + re(k)) * bSum(b * s + k); k += 1 }
      if (rank2) acc += sb(b * m + j) * ubSum(b)
      out(j) += acc
      j += 1
    }
  }

  /** A_b^{-1} (+ ridge, escalated on failure), and t_b, s_b^T t_b. */
  private def invertBlock(b: Int, sigma2: Double, sigmaInv: Array[Double], p: Part): Unit = {
    val off = b * ss
    val wBuf = p.wBuf; val invBuf = p.invBuf
    var lam = math.max(ridge, 1e-12) * Mat.ridgeScale(sigmaInv, s)
    var k = 0
    var ok = false
    var attempt = 0
    while (!ok && attempt < 6) {
      k = 0
      while (k < ss) { wBuf(k) = sigmaInv(k) + dZ(off + k) / sigma2; invBuf(k) = 0.0; k += 1 }
      var d = 0
      while (d < s) { wBuf(d * s + d) += lam; invBuf(d * s + d) = 1.0; d += 1 }
      System.arraycopy(wBuf, 0, aB, off, ss)
      logDetA(b) = Mat.eliminateLogDet(wBuf, invBuf, s)
      ok = !logDetA(b).isNaN
      if (!ok) lam *= 1e3
      attempt += 1
    }
    require(ok, "cluster covariance not invertible")
    if (attempt > 1) p.escalations += 1
    System.arraycopy(invBuf, 0, aInv, off, ss)
    lambda(b) = lam
    if (rank2) {
      var st = 0.0
      var j = 0
      while (j < s) {
        var acc = 0.0
        k = 0
        while (k < s) { acc += aInv(off + j * s + k) * sb(b * m + re(k)); k += 1 }
        tZ(b * s + j) = acc
        st += sb(b * m + re(j)) * acc
        j += 1
      }
      stb(b) = st
    }
  }

  /** D_b beta in Z's rows, and s_b^T beta. */
  private def blockProducts(b: Int, beta: Array[Double]): Unit = {
    val d = bg.d(b)
    var j = 0
    while (j < s) {
      var acc = 0.0; var k = 0
      while (k < m) { acc += d(re(j) * m + k) * beta(k); k += 1 }
      dv(b * s + j) = acc
      j += 1
    }
    if (rank2) {
      var st = 0.0
      j = 0
      while (j < m) { st += sb(b * m + j) * beta(j); j += 1 }
      sv(b) = st
    }
  }

  /** Cluster i: Z_i^T r_i, the posterior mean into `mu`, and its terms of
    * p's block sums, X^T Z b and b~_i^T X_i^T y_i.
    */
  private def cluster(i: Int, xiy: Array[Double], beta: Array[Double], sigma2: Double, mu: Array[Double],
                      p: Part): Unit = {
    val b = blockOf(i)
    val off = b * ss
    val mo = i * s
    val io = i * m
    val xz = p.xz; val aBuf = p.aBuf; val accB = p.accB
    // xz = Z_i^T r_i = Z's slice of X_i^T y_i - D_b beta - u_i (len_b u_i^T beta + s_b^T beta) - s_b u_i^T beta
    var ub = 0.0
    var j = 0
    if (rank2) {
      while (j < m) { ub += u(io + j) * beta(j); j += 1 }
      val cu = len(b) * ub + sv(b)
      j = 0
      while (j < s) { val x = re(j); xz(j) = xiy(io + x) - dv(b * s + j) - u(io + x) * cu - sb(b * m + x) * ub; j += 1 }
    } else
      while (j < s) { xz(j) = xiy(io + re(j)) - dv(b * s + j); j += 1 }
    var i11 = 0.0
    if (!rank2) {
      // mu = A_b^{-1} Z_i^T r_i / sigma2
      j = 0
      while (j < s) {
        var acc = 0.0
        var k = 0
        while (k < s) { acc += aInv(off + j * s + k) * xz(k); k += 1 }
        mu(mo + j) = acc / sigma2
        j += 1
      }
    } else {
      val to = b * s
      val vx = p.vx
      // vx = A_b^{-1} Z_i^T r_i, a = A_b^{-1} u_i; K's entries; U^T A_b^{-1} Z_i^T r_i
      var ua = 0.0; var ut = 0.0; var pa = 0.0; var q = 0.0
      j = 0
      while (j < s) {
        var accX = 0.0; var accU = 0.0
        var k = 0
        while (k < s) { val w = aInv(off + j * s + k); accX += w * xz(k); accU += w * u(io + re(k)); k += 1 }
        vx(j) = accX; aBuf(j) = accU
        val uj = u(io + re(j)); val t = tZ(to + j)
        ua += uj * accU; ut += uj * t
        pa += accU * xz(j); q += t * xz(j)
        j += 1
      }
      val k11 = ua
      val k12 = sigma2 + ut
      val k22 = stb(b) - len(b) * sigma2
      val det = k11 * k22 - k12 * k12
      p.logDetK += math.log(-det)
      i11 = k22 / det
      val i12 = -k12 / det; val i22 = k11 / det
      val c1 = i11 * pa + i12 * q
      val c2 = i12 * pa + i22 * q
      j = 0
      while (j < s) {
        val aj = aBuf(j)
        mu(mo + j) = (vx(j) - aj * c1 - tZ(to + j) * c2) / sigma2
        p.pB(to + j) += i12 * aj
        j += 1
      }
      p.qB(b) += i22
    }
    // accB += mu mu^T - k11 a a^T; mu^T A_b mu; the b_i and u_i^T b~_i
    // block sums; b~_i^T X_i^T y_i
    var muXtr = p.muXtr; var by = p.by
    var ubi = 0.0; var sbi = 0.0; var muAmu = 0.0
    j = 0
    while (j < s) {
      val mj = mu(mo + j)
      val x = re(j)
      muXtr += mj * xz(j)
      by += mj * xiy(io + x)
      p.bSum(b * s + j) += mj
      val ro = off + j * s
      var k = 0
      if (rank2) {
        ubi += u(io + x) * mj; sbi += sb(b * m + x) * mj
        val wj = i11 * aBuf(j)
        while (k < s) { val mm = mj * mu(mo + k); accB(ro + k) += mm - wj * aBuf(k); muAmu += mm * aB(ro + k); k += 1 }
      } else
        while (k < s) { val mm = mj * mu(mo + k); accB(ro + k) += mm; muAmu += mm * aB(ro + k); k += 1 }
      j += 1
    }
    p.muXtr = muXtr
    p.by = by
    p.muWmu += sigma2 * muAmu + (if (rank2) len(b) * ubi * ubi + 2.0 * ubi * sbi else 0.0)
    if (rank2) {
      // G_i b~_i's u_i (len_b u_i^T b~_i + s_b^T b~_i); s_b u_i^T b~_i is summed per block
      p.ubSum(b) += ubi
      val cb = len(b) * ubi + sbi
      val out = p.xtzb
      j = 0
      while (j < m) { out(j) += u(io + j) * cb; j += 1 }
    }
  }
}

/** Ordinary least squares, the paper's "Naive Approach" (Section 3.2): the
  * EM's fit with no iterations and no random effects; `MultiLevelEM.aic`
  * gives its AIC (Figure 16's Linear rows).
  */
object LinearModel {
  def fit(bk: MLBackend, y: Array[Double], ridge: Double = 1e-8): MultiLevelFit =
    MultiLevelEM.fit(bk, y, 0, ridge, Some(Array.emptyIntArray))

  def predict(bk: MLBackend, fit: MultiLevelFit): Array[Double] = MultiLevelEM.predict(bk, fit)
}
