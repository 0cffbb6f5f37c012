package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core.fmatrix.FactorizedMatrix
import repro.core.model.{FactorizedBackend, MultiLevelEM}
import repro.core.reptile._
import repro.synth.DatasetSynth

/** Figure 16 (Appendix K): model quality via AIC on FIST-like and
  * Vote-like data — linear vs multi-level, with and without the auxiliary
  * feature (rainfall / 2016 vote share). Lower AIC is better; a difference
  * above 10 is "substantially better" (Burnham & Anderson).
  */
object AicExp {

  final case class AicRow(dataset: String, model: String, aic: Double, delta: Double)

  private def modelsFor(
      spark: SparkSession,
      fact: org.apache.spark.sql.DataFrame,
      dims: Vector[(String, Vector[String])],
      measure: String,
      aux: AuxDataset,
      emIters: Int,
  ): Vector[(String, Double)] = {
    val dd = Reptile.collectDrilldown(fact, dims.map { case (d, attrs) => (Dimension(d, attrs), attrs.size) }, measure)
    val cfg = ReptileConfig(emIters = emIters)
    val auxValues = new AuxValues(aux)

    def aicFor(useAux: Boolean, multiLevel: Boolean): Double = {
      val fm = new FactorizedMatrix(dd.hiers, dd.features(StatKind.MeanStat, if (useAux) Seq(auxValues) else Nil, cfg))
      val bk = new FactorizedBackend(fm)
      val y = dd.observedY(StatKind.MeanStat, cfg.logTransform)
      // Multi-level: a random intercept + (if present) a random slope on the
      // aux feature. Linear: OLS, the EM's fit with no iterations and no
      // random effects.
      val re = fm.cols.indices.filter { i =>
        multiLevel && (fm.cols(i).label == "intercept" || fm.cols(i).label.startsWith("aux:"))
      }.toArray
      MultiLevelEM.aic(bk, y, MultiLevelEM.fit(bk, y, if (multiLevel) emIters else 0, cfg.ridge, Some(re)), cfg.ridge)
    }

    Vector(
      "Linear" -> aicFor(useAux = false, multiLevel = false),
      "Linear-f" -> aicFor(useAux = true, multiLevel = false),
      "Multi-level" -> aicFor(useAux = false, multiLevel = true),
      "Multi-level-f" -> aicFor(useAux = true, multiLevel = true),
    )
  }

  def run(spark: SparkSession, emIters: Int = 15): Vector[AicRow] = {
    val (fistFact, rainDf) = DatasetSynth.fistLike(spark)
    val fistModels = modelsFor(spark, fistFact,
      Vector("time" -> Vector("year"), "geo" -> Vector("region", "district", "village")),
      "severity", AuxDataset("rainfall", rainDf, "village", "rainfall"), emIters)

    val (voteFact, p16Df) = DatasetSynth.voteLike(spark)
    val voteModels = modelsFor(spark, voteFact,
      Vector("geo" -> Vector("state", "county")),
      "pct2020", AuxDataset("pct2016", p16Df, "county", "pct2016"), emIters)

    def rows(ds: String, ms: Vector[(String, Double)]): Vector[AicRow] = {
      val min = ms.map(_._2).min
      ms.map { case (name, aic) => AicRow(ds, name, aic, aic - min) }
    }
    rows("FIST", fistModels) ++ rows("Vote", voteModels)
  }

  def printRows(rows: Seq[AicRow]): Unit =
    Timing.printTable("Figure 16: model evaluation (AIC; delta vs best per dataset)",
      Seq("dataset", "model", "AIC", "deltaAIC"),
      rows.map(r => Seq(r.dataset, r.model, Timing.f1(r.aic), Timing.f1(r.delta))))
}
