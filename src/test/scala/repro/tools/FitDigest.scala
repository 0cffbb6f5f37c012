package repro.tools

import java.io.PrintWriter
import java.nio.ByteBuffer
import java.security.MessageDigest
import org.apache.spark.sql.SparkSession
import repro.core.fmatrix.{FactorizedMatrix, FeatureColumn}
import repro.core.frep.HierRelation
import repro.core.model.{DenseBackend, FactorizedBackend, MLBackend, MultiLevelEM, ObservedY}
import repro.core.reptile._
import repro.synth.{CovidSynth, DatasetSynth}
import scala.util.Random

/** Writes the bits of EM fits and of the COVID rankings to a file, so that
  * a change meant to keep every result bit-identical can be checked by
  * running this at two commits and diffing the files:
  *
  *   sbt "Test/runMain repro.tools.FitDigest digest.txt"
  *
  * Fits (a cap of 20 iterations, all-column and intercept-only random
  * effects):
  *  - factorised, at the sparse-cube benchmark's shape: n = 633,600 in
  *    52,800 clusters, one parent block, m = 6;
  *  - factorised, a 3-block variant: 158,400 clusters, m = 7;
  *  - dense and factorised, at a shape a materialized matrix fits: n = 8,640
  *    in 1,440 clusters (two chunks of the E-step), m = 7.
  * Each prints the iterations run; beta, Sigma, sigma2 and the escalation
  * count in hex; the length and SHA-256 of the bits of `bs` and of the
  * predictions; and the marginal log-likelihood and AIC in hex. Then
  * every candidate's score, residual and predictions in the 16 US COVID
  * rankings (CovidExp's configuration), and in a COUNT and a MEAN ranking
  * on MetamorphicSpec's COMPAS-like fixture (the default configuration at
  * 12 EM iterations, every column random).
  *
  * `--time k` also fits each model k more times, from the dense y and
  * from the same y as its observed rows (`ObservedY`, the entry the engine
  * uses), takes its log-likelihood k more times, and prints the median
  * times and the fit's iterations to stdout; the file is unchanged.
  */
object FitDigest {

  /** time [month, day] x store [region, store] x product [(category,) product]. */
  private final case class Cube(months: Int, days: Int, regions: Int, stores: Int, categories: Int, products: Int)

  private val SparseCube = Cube(12, 25, 8, 22, 1, 12)
  private val ThreeBlocks = Cube(12, 25, 8, 22, 3, 4)
  private val Small = Cube(4, 10, 3, 6, 2, 6)

  def main(args: Array[String]): Unit = {
    require(args.nonEmpty, "usage: FitDigest <output file> [--time k]")
    val timeReps = args.sliding(2).collectFirst { case Array("--time", k) => k.toInt }.getOrElse(0)
    val out = new PrintWriter(args(0), "UTF-8")
    try digestAll(out, timeReps) finally out.close()
  }

  private def digestAll(out: PrintWriter, timeReps: Int): Unit = {
    for ((name, cube) <- Seq("sparse-cube" -> SparseCube, "three-blocks" -> ThreeBlocks, "small" -> Small)) {
      val fm = matrix(cube)
      val y = sparseY(fm.n, 7)
      val backends: Seq[MLBackend] =
        if (cube == Small) Seq(new FactorizedBackend(fm), new DenseBackend(fm.materialize, fm.clusterRanges))
        else Seq(new FactorizedBackend(fm))
      for (bk <- backends; re <- Seq(None, Some(Array(0))))
        fitDigest(out, s"$name ${bk.getClass.getSimpleName} n=${fm.n} clusters=${fm.numClusters} m=${fm.m} " +
          re.fold("all columns")(_.mkString("reCols ", ",", "")), bk, y, re, timeReps)
    }
    covid(out)
  }

  private def fitDigest(out: PrintWriter, what: String, bk: MLBackend, y: Array[Double], re: Option[Array[Int]],
                        reps: Int): Unit = {
    val fit = MultiLevelEM.fit(bk, y, 20, 1e-8, re)
    out.println(s"== $what")
    out.println(s"iterations ${fit.iterations}")
    out.println(s"beta ${hex(fit.beta)}")
    out.println(s"sigma ${hex(fit.sigma.a)}")
    out.println(s"sigma2 ${hex(fit.sigma2)}")
    out.println(s"ridgeEscalations ${fit.ridgeEscalations}")
    out.println(s"bs ${digest(fit.bs)}")
    out.println(s"predictions ${digest(MultiLevelEM.predict(bk, fit))}")
    def time(task: String)(f: => Unit): Unit = if (reps > 0) {
      val ms = (0 until reps).map { _ => val t0 = System.nanoTime(); f; (System.nanoTime() - t0) / 1e6 }
      println(f"[time] $what $task (${fit.iterations} iterations): median ${ms.sorted.apply(reps / 2)}%.1f ms " +
        f"of $reps, in order " + ms.map(v => f"$v%.0f").mkString(" "))
    }
    time("fit")(MultiLevelEM.fit(bk, y, 20, 1e-8, re))
    val rows = y.indices.filter(y(_) != 0.0).toArray
    time(s"fit from the ${rows.length} observed rows")(
      MultiLevelEM.fit(bk, ObservedY(rows, rows.map(y), 0.0), 20, 1e-8, re))
    out.println(s"logLikelihood ${hex(MultiLevelEM.logLikelihood(bk, ObservedY.dense(y), fit))}")
    out.println(s"aic ${hex(MultiLevelEM.aic(bk, ObservedY.dense(y), fit))}")
    time("logLikelihood")(MultiLevelEM.logLikelihood(bk, ObservedY.dense(y), fit))
  }

  private def matrix(c: Cube): FactorizedMatrix = {
    val time = HierRelation("time", Seq("month", "day"),
      for (a <- 0 until c.months; b <- 0 until c.days) yield Seq(f"m$a%02d", f"m$a%02d-d$b%02d"))
    val store = HierRelation("store", Seq("region", "store"),
      for (a <- 0 until c.regions; b <- 0 until c.stores) yield Seq(f"r$a%02d", f"r$a%02d-s$b%02d"))
    val product =
      if (c.categories == 1) HierRelation("product", Seq("product"), (0 until c.products).map(p => Seq(f"p$p%02d")))
      else HierRelation("product", Seq("category", "product"),
        for (a <- 0 until c.categories; p <- 0 until c.products) yield Seq(s"c$a", f"c$a-p$p%02d"))
    val hiers = Vector(time, store, product)
    // A feature value depends on the attribute value alone, not on the order
    // in which the matrix asks for it.
    def feat(v: String): Double = 1.0 + new Random(v.hashCode.toLong).nextGaussian()
    val cols = FeatureColumn.Intercept +:
      (for (h <- hiers.indices; a <- 0 until hiers(h).depth) yield FeatureColumn(s"f:${hiers(h).attrs(a)}", h, a, feat))
    new FactorizedMatrix(hiers, cols.toVector)
  }

  /** ~2% of the groups observed, as in the sparse-cube benchmark; 0 elsewhere. */
  private def sparseY(n: Int, seed: Long): Array[Double] = {
    val rng = new Random(seed)
    Array.fill(n)(if (rng.nextDouble() < 0.02) 100.0 * math.exp(0.5 * rng.nextGaussian()) else 0.0)
  }

  private def covid(out: PrintWriter): Unit = {
    val spark = SparkSession.builder.master("local[2]").appName("FitDigest")
      .config("spark.sql.shuffle.partitions", "8").config("spark.ui.enabled", "false").getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    try {
      val cfg = ReptileConfig(emIters = 12, logTransform = true, sumDirect = true, randomEffects = "intercept")
      val dims = Vector(Dimension("time", Vector("day")), Dimension("geo", Vector("state")))
      for (issue <- CovidSynth.usIssues) {
        val fact = CovidSynth.corruptedUs(spark, issue, 42)
        val res = Reptile.rankDim(spark, fact, dims, Map("time" -> 1), Map("day" -> CovidSynth.dayKey(issue.day)),
          Complaint(AggType.Sum, issue.dir), "value", "geo", Nil, cfg)
        ranking(out, s"covid ${issue.id}", "state", res)
      }
      val compas = DatasetSynth.compasLike(spark, rows = 4000, seed = 31)
      val compasDims = Vector(Dimension("time", Vector("year", "month", "day")), Dimension("age", Vector("age")),
        Dimension("race", Vector("race")))
      for (agg <- Seq(AggType.Count, AggType.Mean)) {
        val res = Reptile.rankDim(spark, compas, compasDims, Map("time" -> 2, "age" -> 1),
          Map("year" -> "y1", "month" -> "y1-m03", "age" -> "a1"), Complaint(agg, Direction.TooHigh), "v", "race",
          Nil, ReptileConfig(emIters = 12))
        ranking(out, s"compas ${agg.name}", "race", res)
      }
    } finally spark.stop()
  }

  private def ranking(out: PrintWriter, what: String, attr: String, res: DimRankResult): Unit = {
    out.println(s"== $what best ${res.best.values(attr)} baseline ${hex(res.baselineScore)}")
    res.candidates.foreach { c =>
      val preds = c.predicted.toSeq.sorted.map { case (k, v) => s"$k=${hex(v)}" }.mkString(" ")
      out.println(s"${c.values(attr)} score ${hex(c.score)} residual ${hex(c.residual)} $preds")
    }
  }

  private def hex(d: Double): String = f"${java.lang.Double.doubleToRawLongBits(d)}%016x"
  private def hex(a: Array[Double]): String = a.map(hex).mkString(" ")

  private def digest(a: Array[Double]): String = {
    val buf = ByteBuffer.allocate(8 * a.length)
    a.foreach(v => buf.putLong(java.lang.Double.doubleToRawLongBits(v)))
    val sha = MessageDigest.getInstance("SHA-256").digest(buf.array()).map(b => f"$b%02x").mkString
    s"n=${a.length} sha256=$sha"
  }
}
