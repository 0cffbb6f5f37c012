package repro.perfbench

import org.apache.spark.sql.functions._
import repro.core.fmatrix.FactorizedMatrix
import repro.core.frep.HierRelation
import repro.core.model.{FactorizedBackend, LinearModel, MultiLevelEM, MultiLevelFit}
import repro.core.reptile._
import scala.collection.mutable

/** A model trained inside a traced complaint, kept so that each backend
  * primitive can be timed once at its shape after the complaint ends.
  */
final case class TrainedModel(bk: FactorizedBackend, y: Array[Double], fit: MultiLevelFit, iters: Int)

/** `Reptile.rankDim` and `Reptile.recommend` rebuilt, step for step and in
  * the same order, from the layers' public functions, with a span around
  * each layer call. The traced run checks that its rankings equal the
  * engine's. This copy goes away once the engine traces itself.
  */
final class TracedEngine(tr: Tracer) extends Engine {
  val models = mutable.ArrayBuffer.empty[TrainedModel]
  private val extracted = mutable.HashSet.empty[(Int, String, Seq[String])]

  /** Starts a complaint: counts from here on belong to complaint `c`. */
  def begin(c: Int): Unit = { tr.complaint = c; models.clear(); extracted.clear() }

  def recommend(q: Query): Vector[DimRankResult] = tr.span("reptile.recommend") {
    val eligible = q.dims.filter(d => q.drilled.getOrElse(d.name, 0) < d.attrs.size)
    require(eligible.nonEmpty, "no hierarchy left to drill down")
    eligible.map(d => rankDim(q, d.name)).sortBy(_.best.score).toVector
  }

  def rankDim(q: Query, targetDim: String): DimRankResult = tr.span("reptile.rankDim") {
    val cfg = q.cfg
    tr.add("reptile.recommend_dims", 1)
    val target = q.dims.find(_.name == targetDim)
      .getOrElse(throw new IllegalArgumentException(s"unknown dimension $targetDim"))
    val tDepth = q.drilled.getOrElse(targetDim, 0) + 1
    require(tDepth <= target.attrs.size, s"dimension $targetDim fully drilled")
    val others = q.dims.filter(d => d.name != targetDim && q.drilled.getOrElse(d.name, 0) > 0)
    val used: Vector[(Dimension, Int)] =
      (others.map(d => (d, q.drilled(d.name))) :+ ((target, tDepth))).toVector

    val hiers = used.map { case (d, dep) =>
      val attrs = d.attrs.take(dep)
      tr.add("frep.hier_extractions", 1)
      if (!extracted.add((System.identityHashCode(q.fact), d.name, attrs))) tr.add("frep.hier_repeats", 1)
      tr.span("frep.hier")(HierRelation.fromDataFrame(q.fact, d.name, attrs))
    }
    val allAttrs: Vector[String] = used.flatMap { case (d, dep) => d.attrs.take(dep).toVector }

    val (statsDf, observed) = tr.span("reptile.stats") {
      val df = Reptile.drilldownStats(q.fact, allAttrs, q.measure).cache()
      val obs: Map[Vector[String], GroupStats] = df.collect().map { r =>
        val key = allAttrs.indices.map(i => String.valueOf(r.get(i))).toVector
        val base = allAttrs.size
        key -> GroupStats(r.getDouble(base), r.getDouble(base + 1), r.getDouble(base + 2))
      }.toMap
      (df, obs)
    }
    tr.add("reptile.groups_observed", observed.size)

    val kinds: Seq[StatKind] = q.complaint.agg match {
      case AggType.Count => Seq(StatKind.CountStat)
      case AggType.Mean  => Seq(StatKind.MeanStat)
      case AggType.Std   => Seq(StatKind.MeanStat)
      case AggType.Sum =>
        if (cfg.sumDirect) Seq(StatKind.SumStat) else Seq(StatKind.CountStat, StatKind.MeanStat)
    }

    val perKind: Map[StatKind, (FactorizedMatrix, Array[Double])] = kinds.map { kind =>
      val tCol = s"y_${kind.name}"
      val fcols = tr.span("reptile.featurize") {
        val withY =
          if (cfg.logTransform) statsDf.withColumn(tCol, log1p(greatest(col(kind.col), lit(0.0))))
          else statsDf.withColumn(tCol, col(kind.col))
        Featurizer.build(withY, hiers, tCol, Nil, cfg.minParallel)
      }
      val kept = fcols.count(_.label.startsWith("main:"))
      tr.add("reptile.features_kept", kept)
      tr.add("reptile.features_dropped", hiers.map(_.depth).sum - kept)
      val fm = tr.span("fmatrix.build")(new FactorizedMatrix(hiers, fcols))
      tr.max("fmatrix.n", fm.n)
      tr.max("fmatrix.m", fm.m)
      tr.max("fmatrix.clusters", fm.numClusters)
      tr.max("fmatrix.parent_blocks", fm.blocks.size)
      val y = tr.span("reptile.buildy")(Reptile.buildY(fm, hiers, allAttrs, observed, kind, cfg))
      tr.add("reptile.y_rows", fm.n)
      tr.add("reptile.y_observed", observed.size)
      kind -> (fm, predictions(fm, y, cfg))
    }.toMap

    tr.span("reptile.rank") {
      val fm0 = perKind(kinds.head)._1
      val fixedRows: Vector[Int] = used.dropRight(1).zipWithIndex.map { case ((d, dep), h) =>
        val tuple = d.attrs.take(dep).map(a =>
          q.filters.getOrElse(a, throw new IllegalArgumentException(s"filter missing for drilled attr $a")))
        hiers(h).rowIndexOf(tuple)
      }
      val parentPrefix = target.attrs.take(tDepth - 1).map(a =>
        q.filters.getOrElse(a, throw new IllegalArgumentException(s"filter missing for drilled attr $a")))
      val tHier = hiers.last
      val (cStart, cEnd) = tHier.blockOfPrefix(parentPrefix)

      val candidates = (cStart until cEnd).toVector.map { r =>
        val idx = fm0.indexOf(fixedRows :+ r)
        val key = (used.dropRight(1).zipWithIndex.flatMap { case (_, h) => hiers(h).rows(fixedRows(h)) } ++
          tHier.rows(r)).toVector
        val obs = observed.getOrElse(key, GroupStats.empty)
        val preds: Map[String, Double] = kinds.map(k => k.name -> perKind(k)._2(idx)).toMap
        (allAttrs.zip(key).toMap, obs, Reptile.repair(obs, preds, kinds), preds)
      }
      tr.add("reptile.candidates", candidates.size)

      val obsAll = candidates.map(_._2)
      val baselineScore = q.complaint.score(GroupStats.combine(obsAll))
      val primary = kinds.head
      val scored = candidates.zipWithIndex.map { case ((values, obs, rep, preds), ci) =>
        val combined = GroupStats.combine(obsAll.updated(ci, rep))
        val residual =
          if (kinds.size == 2) obs.sum - preds("count") * preds("mean")
          else primary match {
            case StatKind.CountStat => obs.count - preds("count")
            case StatKind.MeanStat  => obs.mean - preds("mean")
            case StatKind.SumStat   => obs.sum - preds("sum")
          }
        Candidate(values, obs, rep, preds, q.complaint.score(combined), residual)
      }
      statsDf.unpersist()
      DimRankResult(targetDim, target.attrs(tDepth - 1), scored, baselineScore)
    }
  }

  private def predictions(fm: FactorizedMatrix, y: Array[Double], cfg: ReptileConfig): Array[Double] = {
    val bk = new FactorizedBackend(fm)
    val raw =
      if (cfg.multiLevel) {
        val reCols = cfg.randomEffects match {
          case "all"       => None
          case "intercept" => Some(Array(fm.cols.indexWhere(_.label == "intercept") max 0))
          case other       => throw new IllegalArgumentException(s"unknown randomEffects mode $other")
        }
        val fit = tr.span("model.em_fit")(MultiLevelEM.fit(bk, y, cfg.emIters, cfg.ridge, reCols))
        tr.add("model.em_iters", cfg.emIters)
        models += TrainedModel(bk, y, fit, cfg.emIters)
        tr.span("model.predict")(MultiLevelEM.predict(bk, fit))
      } else tr.span("model.predict")(LinearModel.predict(bk, LinearModel.fit(bk, y, cfg.ridge)))
    if (cfg.logTransform) raw.map(v => math.max(math.expm1(v), 0.0)) else raw
  }
}
