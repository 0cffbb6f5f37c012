package repro.core

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageSubmitted}
import org.apache.spark.sql.SparkSession
import repro.SparkSpec
import repro.core.frep.{HierRelation, Seg}
import repro.core.reptile._
import scala.jdk.CollectionConverters._
import scala.util.Random

/** End-to-end behaviour of the complaint-based drill-down engine on small
  * planted-error scenarios, including the paper's running FIST example.
  */
class ReptileSpec extends SparkSpec {
  import ReptileSpec.{dims, panel}
  import spark.implicits._

  private val cfg = ReptileConfig(emIters = 8)

  test("recommend surfaces a village whose values collapsed (FIST example)") {
    // Zata-like error: one village's 1986 severities are far too low.
    val rows = panel(1).map {
      case (y, d, v, m) if y == "1986" && v == "ofla-v2" => (y, d, v, m - 5.0)
      case r                                             => r
    }
    val fact = rows.toDF("year", "district", "village", "sev")
    val res = Reptile.recommend(spark, fact, dims,
      drilled = Map("time" -> 1, "geo" -> 1),
      filters = Map("year" -> "1986", "district" -> "ofla"),
      complaint = Complaint(AggType.Mean, Direction.TooLow),
      measure = "sev", cfg = cfg)
    val best = res.head
    assert(best.dim == "geo" && best.attr == "village")
    assert(best.best.values("village") == "ofla-v2")
    // repairing the bad village raises the district mean
    assert(best.best.repaired.mean > best.best.observed.mean)
  }

  test("an auxiliary signal explains away a would-be outlier (Darube vs Zata)") {
    // Two low villages; rainfall explains v1's low severity but not v2's.
    val rng = new Random(7)
    val villages = (0 until 6).map(i => s"ofla-v$i")
    // severity tracks (inverse) rainfall; v2 breaks the relationship
    val rain = villages.map(v => v -> (if (v == "ofla-v1") 600.0 else 150.0 + rng.nextDouble() * 80)).toMap
    val rows = for {
      v <- villages
      _ <- 0 until 30
    } yield {
      val base = if (v == "ofla-v1") 2.0 else if (v == "ofla-v2") 2.2 else 7.5
      ("1986", "ofla", v, base + rng.nextGaussian() * 0.4)
    }
    val fact = rows.toDF("year", "district", "village", "sev")
    val aux = AuxDataset("rain", rain.toSeq.toDF("village", "rainfall"), "village", "rainfall")
    val res = Reptile.rankDim(spark, fact, dims,
      drilled = Map("time" -> 1, "geo" -> 1),
      filters = Map("year" -> "1986", "district" -> "ofla"),
      complaint = Complaint(AggType.Mean, Direction.TooLow),
      measure = "sev", targetDim = "geo", aux = Seq(aux), cfg = cfg)
    // v1 (high rainfall -> low severity expected) should rank below v2.
    val ranked = res.ranked.map(_.values("village"))
    assert(ranked.head == "ofla-v2", s"got $ranked")
  }

  test("count complaints find groups with missing records") {
    val rng = new Random(2)
    val rows = panel(2, perGroup = 30).filterNot { case (y, _, v, _) =>
      y == "1986" && v == "raya-v1" && rng.nextDouble() < 0.8 // drop ~80% of one group
    }
    val fact = rows.toDF("year", "district", "village", "sev")
    val res = Reptile.rankDim(spark, fact, dims,
      drilled = Map("time" -> 1, "geo" -> 1),
      filters = Map("year" -> "1986", "district" -> "raya"),
      complaint = Complaint(AggType.Count, Direction.TooLow),
      measure = "sev", targetDim = "geo", cfg = cfg)
    assert(res.best.values("village") == "raya-v1")
    assert(res.best.repaired.count > res.best.observed.count)
  }

  test("std complaints are repaired through the mean (Figure 1 scenario)") {
    val rows = panel(3).map {
      case (y, d, v, m) if y == "1986" && v == "ofla-v3" => (y, d, v, m - 5.0)
      case r                                             => r
    }
    val fact = rows.toDF("year", "district", "village", "sev")
    val res = Reptile.rankDim(spark, fact, dims,
      drilled = Map("time" -> 1, "geo" -> 1),
      filters = Map("year" -> "1986", "district" -> "ofla"),
      complaint = Complaint(AggType.Std, Direction.TooHigh),
      measure = "sev", targetDim = "geo", cfg = cfg)
    assert(res.best.values("village") == "ofla-v3")
  }

  test("recommend ranks hierarchies by best repair score") {
    val rows = panel(4)
    val fact = rows.toDF("year", "district", "village", "sev")
    val res = Reptile.recommend(spark, fact, dims,
      drilled = Map("time" -> 1, "geo" -> 1),
      filters = Map("year" -> "1986", "district" -> "ofla"),
      complaint = Complaint(AggType.Mean, Direction.TooLow),
      measure = "sev", cfg = cfg)
    // both remaining drill-downs evaluated: geo -> village only (time is exhausted)
    assert(res.map(_.dim) == Vector("geo"))
  }

  test("drill-down candidates respect the provenance filters") {
    val fact = panel(5).toDF("year", "district", "village", "sev")
    val res = Reptile.rankDim(spark, fact, dims,
      drilled = Map("time" -> 1, "geo" -> 1),
      filters = Map("year" -> "1985", "district" -> "raya"),
      complaint = Complaint(AggType.Mean, Direction.TooHigh),
      measure = "sev", targetDim = "geo", cfg = cfg)
    assert(res.candidates.size == 4)
    assert(res.candidates.forall(_.values("district") == "raya"))
    assert(res.candidates.forall(_.values("year") == "1985"))
  }

  test("sum complaints repair count and mean jointly") {
    val rng = new Random(6)
    val rows = panel(6, perGroup = 30).flatMap {
      case (y, d, v, m) if y == "1986" && v == "ofla-v0" =>
        if (rng.nextDouble() < 0.5) None else Some((y, d, v, m - 3.0)) // missing + decrease
      case r => Some(r)
    }
    val fact = rows.toDF("year", "district", "village", "sev")
    val res = Reptile.rankDim(spark, fact, dims,
      drilled = Map("time" -> 1, "geo" -> 1),
      filters = Map("year" -> "1986", "district" -> "ofla"),
      complaint = Complaint(AggType.Sum, Direction.TooLow),
      measure = "sev", targetDim = "geo", cfg = cfg)
    assert(res.best.values("village") == "ofla-v0")
    assert(res.best.repaired.sum > res.best.observed.sum)
  }

  test("missing filters for drilled attributes are rejected") {
    val fact = panel(8).toDF("year", "district", "village", "sev")
    intercept[IllegalArgumentException] {
      Reptile.rankDim(spark, fact, dims, drilled = Map("time" -> 1, "geo" -> 1),
        filters = Map("district" -> "ofla"), // year missing
        complaint = Complaint(AggType.Mean, Direction.TooLow),
        measure = "sev", targetDim = "geo", cfg = cfg)
    }
  }

  test("fully drilled dimensions cannot be drilled further") {
    val fact = panel(9).toDF("year", "district", "village", "sev")
    intercept[IllegalArgumentException] {
      Reptile.rankDim(spark, fact, dims, drilled = Map("time" -> 1, "geo" -> 2),
        filters = Map("year" -> "1985", "district" -> "ofla", "village" -> "ofla-v0"),
        complaint = Complaint(AggType.Mean, Direction.TooLow),
        measure = "sev", targetDim = "geo", cfg = cfg)
    }
  }

  test("repair substitutes predicted statistics") {
    val obs = GroupStats(10, 5.0, 1.0)
    val r1 = Reptile.repair(obs, Map("count" -> 20.0), Seq(StatKind.CountStat))
    assert(r1 == obs.copy(count = 20.0))
    val r2 = Reptile.repair(obs, Map("mean" -> 7.0), Seq(StatKind.MeanStat))
    assert(r2 == obs.copy(mean = 7.0))
    val r3 = Reptile.repair(obs, Map("sum" -> 80.0), Seq(StatKind.SumStat))
    assert(math.abs(r3.sum - 80.0) < 1e-9)
    val r4 = Reptile.repair(GroupStats.empty, Map("sum" -> 12.0), Seq(StatKind.SumStat))
    assert(math.abs(r4.sum - 12.0) < 1e-9)
    val r5 = Reptile.repair(obs, Map("count" -> -3.0), Seq(StatKind.CountStat))
    assert(r5.count == 0.0) // clamped
  }

  test("a repair that predicts each candidate's observed statistics leaves the complaint score at its baseline") {
    // ofla-v3 has no 1986 rows, so one candidate is an empty group.
    val fact = panel(11).filterNot(r => r._1 == "1986" && r._3 == "ofla-v3").toDF("year", "district", "village", "sev")
    val kindOf = Map("count" -> StatKind.CountStat, "mean" -> StatKind.MeanStat, "sum" -> StatKind.SumStat)
    def stat(kind: StatKind, g: GroupStats): Double = kind match {
      case StatKind.CountStat => g.count
      case StatKind.MeanStat  => g.mean
      case StatKind.SumStat   => g.sum
    }
    for ((agg, sumDirect) <- Seq(AggType.Count -> false, AggType.Mean -> false, AggType.Std -> false,
                                 AggType.Sum -> false, AggType.Sum -> true)) {
      val complaint = Complaint(agg, Direction.TooLow)
      val res = Reptile.rankDim(spark, fact, dims,
        drilled = Map("time" -> 1, "geo" -> 1),
        filters = Map("year" -> "1986", "district" -> "ofla"),
        complaint = complaint, measure = "sev", targetDim = "geo", cfg = cfg.copy(sumDirect = sumDirect))
      assert(res.candidates.exists(_.observed == GroupStats.empty))
      val obsAll = res.candidates.map(_.observed)
      res.candidates.zipWithIndex.foreach { case (c, ci) =>
        val kinds = c.predicted.keys.toSeq.map(kindOf)
        val rep = Reptile.repair(c.observed, kinds.map(k => k.name -> stat(k, c.observed)).toMap, kinds)
        val score = complaint.score(GroupStats.combine(obsAll.updated(ci, rep)))
        val what = s"${agg.name} complaint, kinds ${kinds.map(_.name).mkString(",")}, ${c.values("village")}"
        // A SUM repair sets mean = sum / count, which can move the mean by an ulp.
        val tol = if (kinds.contains(StatKind.SumStat)) 1e-12 * math.abs(res.baselineScore) else 0.0
        assert(math.abs(score - res.baselineScore) <= tol, s"$what: $score vs ${res.baselineScore}")
      }
    }
  }

  test("linear-model configuration also runs") {
    val fact = panel(10).toDF("year", "district", "village", "sev")
    val res = Reptile.rankDim(spark, fact, dims,
      drilled = Map("time" -> 1, "geo" -> 1),
      filters = Map("year" -> "1986", "district" -> "ofla"),
      complaint = Complaint(AggType.Mean, Direction.TooLow),
      measure = "sev", targetDim = "geo", cfg = cfg.copy(multiLevel = false))
    assert(res.candidates.size == 4)
  }

  private def sparkWork(body: => Any): (Int, Int) = ReptileSpec.sparkWork(spark)(body)

  private def jobsOf(body: => Any): Int = sparkWork(body)._1

  test("rankDim and recommend each run one Spark job of one stage") {
    val fact = panel(11).toDF("year", "district", "village", "sev")
    val complaint = Complaint(AggType.Mean, Direction.TooLow)
    val rankWork = sparkWork(Reptile.rankDim(spark, fact, dims, Map("time" -> 1, "geo" -> 1),
      Map("year" -> "1986", "district" -> "ofla"), complaint, "sev", "geo", cfg = cfg))
    assert(rankWork == (1, 1), s"rankDim ran (jobs, stages) = $rankWork")
    // two candidate hierarchies (time, and geo -> village) in one scan
    val recWork = sparkWork(Reptile.recommend(spark, fact, dims, Map("geo" -> 1),
      Map("district" -> "ofla"), complaint, "sev", cfg = cfg))
    assert(recWork == (1, 1), s"recommend ran (jobs, stages) = $recWork")
  }

  test("rankDim and recommend collect an aux dataset once") {
    val fact = panel(14).toDF("year", "district", "village", "sev")
    // Collecting a repartitioned table runs a Spark job.
    val rain = Seq("alaje" -> 120.0, "bora" -> 340.0, "ofla" -> 80.0, "raya" -> 210.0).toDF("district", "rainfall")
      .repartition(2)
    val aux = Seq(AuxDataset("rain", rain, "district", "rainfall"))
    val auxJobs = jobsOf(rain.collect())
    assert(auxJobs >= 1)
    // A SUM complaint fits a count and a mean model, each featurized with
    // the aux column; every candidate drill-down holds district.
    val complaint = Complaint(AggType.Sum, Direction.TooLow)
    val rankJobs = jobsOf(Reptile.rankDim(spark, fact, dims, Map("time" -> 1, "geo" -> 1),
      Map("year" -> "1986", "district" -> "ofla"), complaint, "sev", "geo", aux, cfg))
    assert(rankJobs == 1 + auxJobs, s"rankDim ran $rankJobs jobs, collecting the aux table takes $auxJobs")
    val recJobs = jobsOf(Reptile.recommend(spark, fact, dims, Map("geo" -> 1), Map("district" -> "ofla"), complaint,
      "sev", aux, cfg))
    assert(recJobs == 1 + auxJobs, s"recommend ran $recJobs jobs, collecting the aux table takes $auxJobs")
  }

  test("recommend's grouping-sets scan ranks each candidate as rankDim does") {
    val rows = panel(12).map {
      case (y, d, v, m) if y == "1987" && v == "raya-v3" => (y, d, v, m + 4.0)
      case r                                             => r
    }
    val fact = rows.toDF("year", "district", "village", "sev")
    val drilled = Map("geo" -> 1)
    val filters = Map("district" -> "raya")
    for (complaint <- Seq(Complaint(AggType.Mean, Direction.TooHigh), Complaint(AggType.Sum, Direction.TooHigh))) {
      val rec = Reptile.recommend(spark, fact, dims, drilled, filters, complaint, "sev", cfg = cfg)
      assert(rec.map(_.dim).toSet == Set("time", "geo"))
      rec.foreach { r =>
        val single = Reptile.rankDim(spark, fact, dims, drilled, filters, complaint, "sev", r.dim, cfg = cfg)
        assert(r.attr == single.attr)
        assert(r.ranked.map(_.values) == single.ranked.map(_.values), s"${r.dim}")
        assert(r.candidates.map(_.observed.count) == single.candidates.map(_.observed.count))
        r.candidates.zip(single.candidates).foreach { case (a, b) =>
          assert(math.abs(a.score - b.score) <= 1e-9 * math.max(1.0, math.abs(b.score)), s"${a.values}")
        }
      }
    }
  }

  test("a rankDim that throws leaves no cached statistics") {
    val fact = panel(13).toDF("year", "district", "village", "sev")
    spark.catalog.clearCache()
    intercept[IllegalArgumentException] {
      Reptile.rankDim(spark, fact, dims, drilled = Map("time" -> 1, "geo" -> 1),
        filters = Map("district" -> "ofla"), // year missing
        complaint = Complaint(AggType.Mean, Direction.TooLow),
        measure = "sev", targetDim = "geo", cfg = cfg)
    }
    assert(spark.sharedState.cacheManager.isEmpty)
  }

  test("a null or NaN measure fails rankDim and recommend with an error naming the measure") {
    val bad: Seq[(String, Option[Double])] = Seq("null" -> None, "NaN" -> Some(Double.NaN))
    for ((what, value) <- bad) {
      val fact = panel(15).map {
        case (y, d, v, m) if y == "1985" && v == "bora-v1" && m > 7.0 => (y, d, v, value)
        case (y, d, v, m)                                             => (y, d, v, Some(m))
      }.toDF("year", "district", "village", "sev")
      val complaint = Complaint(AggType.Sum, Direction.TooLow)
      val calls: Seq[(String, () => Any)] = Seq(
        "rankDim" -> (() => Reptile.rankDim(spark, fact, dims, Map("time" -> 1, "geo" -> 1),
          Map("year" -> "1986", "district" -> "ofla"), complaint, "sev", "geo", cfg = cfg)),
        "recommend" -> (() => Reptile.recommend(spark, fact, dims, Map("geo" -> 1),
          Map("district" -> "ofla"), complaint, "sev", cfg = cfg)))
      for ((name, call) <- calls) {
        val ex = intercept[IllegalArgumentException](call())
        assert(ex.getMessage.contains("measure sev") && ex.getMessage.contains(what), s"$name, $what: ${ex.getMessage}")
      }
    }
  }

  test("drilldownStats over a null measure fails in its one job, naming the measure and group") {
    val clean = panel(15).map { case (y, d, v, m) => (y, d, v, Option(m)) }
    val bad = clean.map {
      case (y, d, v, Some(m)) if y == "1985" && v == "bora-v1" && m > 7.0 => (y, d, v, None)
      case r                                                             => r
    }
    val nulls = bad.count(_._4.isEmpty)
    assert(nulls > 0)
    def stats(rows: Seq[(String, String, String, Option[Double])]) =
      Reptile.drilldownStats(rows.toDF("year", "district", "village", "sev"), Seq("year", "district", "village"), "sev")
    val cleanJobs = jobsOf(assert(stats(clean).collect().length == 80))
    var ex: Throwable = null
    val badJobs = jobsOf { ex = intercept[Exception](stats(bad).collect()) }
    val msgs = Iterator.iterate(ex)(_.getCause).takeWhile(_ != null).map(e => String.valueOf(e.getMessage)).mkString("\n")
    assert(msgs.contains(s"measure sev is null in $nulls rows of group (1985, bora, bora-v1)"), msgs)
    assert(badJobs <= cleanJobs && cleanJobs <= 2, s"$badJobs jobs with a null measure, $cleanJobs without")
  }

  test("a 1,200^3 matrix with its 1,200 diagonal groups observed ranks without an n-length vector") {
    // Three 1,200-row hierarchies: n = 1,200^3 ~ 1.7e9 rows, ~55 GB for y
    // and three prediction vectors. The model holds the observed groups,
    // the cluster terms (1,200^2 clusters) and the candidates' rows.
    val dims3 = Vector("a", "b", "c").map(a => Dimension(a, Vector(a)))
    val hiers = dims3.map(d => HierRelation(d.name, d.attrs, (0 until 1200).map(k => Seq(f"${d.name}$k%04d"))))
    val diagonal = Vector.fill(3)(Array.range(0, 1200))
    val stats = Vector.tabulate(1200)(k => GroupStats(1.0 + k % 3, 2.0 + k % 5, 0.0))
    val dd = new Drilldown(dims3.map(_ -> 1), hiers, diagonal, stats, stats.map(_.sum).toArray)
    assert(dd.n == 1728000000L)
    val res = Reptile.rankDrilldown(dd, Map("a" -> "a0000", "b" -> "b0000"),
      Complaint(AggType.Mean, Direction.TooHigh), Nil, cfg.copy(emIters = 2))
    assert(res.candidates.size == 1200)
    res.candidates.foreach(c => assert(java.lang.Double.isFinite(c.predicted("mean")), c))
    val seen = res.candidates.filter(_.observed.count > 0)
    assert(seen.map(_.values("c")) == Vector("c0000"))
    assert(seen.head.repaired.mean == seen.head.predicted("mean"))
  }

  test("a drill-down whose matrix has more than Int.MaxValue rows fails naming n") {
    // 1,300^3 = 2,197,000,000 rows: the row index of a group no longer fits an Int.
    val dims3 = Vector("a", "b", "c").map(a => Dimension(a, Vector(a)))
    val hiers = dims3.map(d => HierRelation(d.name, d.attrs, (0 until 1300).map(k => Seq(f"${d.name}$k%04d"))))
    val dd = new Drilldown(dims3.map(_ -> 1), hiers, Vector.fill(3)(Array.range(0, 1300)),
      Vector.fill(1300)(GroupStats(1.0, 2.0, 0.0)), Array.fill(1300)(2.0))
    val ex = intercept[IllegalArgumentException] {
      Reptile.rankDrilldown(dd, Map("a" -> "a0000", "b" -> "b0000"), Complaint(AggType.Count, Direction.TooHigh), Nil, cfg)
    }
    assert(ex.getMessage.contains("2197000000"), ex.getMessage)
  }

  test("a null attribute value fails with an error naming the attribute") {
    val rows = panel(14).map {
      case (y, d, v, m) if y == "1985" && v == "bora-v1" => (y, d, null, m)
      case r                                             => r
    }
    val fact = rows.toDF("year", "district", "village", "sev")
    val ex = intercept[IllegalArgumentException] {
      Reptile.rankDim(spark, fact, dims, drilled = Map("time" -> 1, "geo" -> 1),
        filters = Map("year" -> "1986", "district" -> "ofla"),
        complaint = Complaint(AggType.Mean, Direction.TooLow),
        measure = "sev", targetDim = "geo", cfg = cfg)
    }
    assert(ex.getMessage.contains("village"), ex.getMessage)
  }

  test("a dimension with a single value ranks its one group") {
    // Every record in one village: geo's relation is one row.
    val fact = panel(15).filter(_._3 == "ofla-v0").toDF("year", "district", "village", "sev")
    val drilled = Map("time" -> 1, "geo" -> 1)
    val geo = Reptile.collectDrilldown(fact, Reptile.drilldownOf(dims, drilled, "geo"), "sev").hiers.last
    assert(geo.rows == Vector(Vector("ofla", "ofla-v0")))
    assert(geo.segments == Vector(Vector(Seg("ofla", 0, 1)), Vector(Seg("ofla-v0", 0, 1))))
    assert(geo.parentBlocks == Vector((0, 1)))
    val res = Reptile.rankDim(spark, fact, dims, drilled,
      filters = Map("year" -> "1986", "district" -> "ofla"),
      complaint = Complaint(AggType.Mean, Direction.TooLow),
      measure = "sev", targetDim = "geo", cfg = cfg)
    assert(res.ranked.map(_.values("village")) == Vector("ofla-v0"))
  }

  test("a filter value absent from the data fails naming the value and its hierarchy") {
    val fact = panel(16).toDF("year", "district", "village", "sev")
    def rank(filters: Map[String, String]): DimRankResult =
      Reptile.rankDim(spark, fact, dims, drilled = Map("time" -> 1, "geo" -> 1), filters,
        Complaint(AggType.Mean, Direction.TooLow), "sev", "geo", cfg = cfg)
    val year = intercept[NoSuchElementException](rank(Map("year" -> "1999", "district" -> "ofla")))
    assert(year.getMessage == "tuple 1999 not in hierarchy time")
    val district = intercept[IllegalArgumentException](rank(Map("year" -> "1986", "district" -> "tigray")))
    assert(district.getMessage.contains("prefix tigray not found in hierarchy geo"), district.getMessage)
  }

  test("an empty fact table fails with an error, not an empty ranking") {
    val fact = panel(17).toDF("year", "district", "village", "sev").limit(0)
    val ranked = intercept[IllegalArgumentException] {
      Reptile.rankDim(spark, fact, dims, drilled = Map("time" -> 1, "geo" -> 1),
        filters = Map("year" -> "1986", "district" -> "ofla"),
        complaint = Complaint(AggType.Mean, Direction.TooLow),
        measure = "sev", targetDim = "geo", cfg = cfg)
    }
    assert(ranked.getMessage.contains("the fact table has no rows to group by (year, district, village)"),
      ranked.getMessage)
    val recommended = intercept[IllegalArgumentException] {
      Reptile.recommend(spark, fact, dims, drilled = Map("time" -> 1, "geo" -> 1),
        filters = Map("year" -> "1986", "district" -> "ofla"),
        complaint = Complaint(AggType.Mean, Direction.TooLow),
        measure = "sev", cfg = cfg)
    }
    assert(recommended.getMessage.contains("the fact table has no rows to group by"), recommended.getMessage)
  }

  test("an aux dataset joining no group leaves the fit unchanged") {
    val rows = panel(19).map {
      case (y, d, v, m) if y == "1986" && v == "ofla-v1" => (y, d, v, m - 4.0)
      case r                                             => r
    }
    val fact = rows.toDF("year", "district", "village", "sev")
    val aux = AuxDataset("rain", Seq("nowhere-1" -> 300.0, "nowhere-2" -> 150.0).toDF("village", "rainfall"),
      "village", "rainfall")
    def rank(aux: Seq[AuxDataset]): DimRankResult =
      Reptile.rankDim(spark, fact, dims, drilled = Map("time" -> 1, "geo" -> 1),
        filters = Map("year" -> "1986", "district" -> "ofla"),
        complaint = Complaint(AggType.Mean, Direction.TooLow),
        measure = "sev", targetDim = "geo", aux = aux, cfg = cfg)

    // The aux column would be all zeros, so the driver step leaves it out.
    val used = Reptile.drilldownOf(dims, Map("time" -> 1, "geo" -> 1), "geo")
    val dd = Reptile.collectDrilldown(fact, used, "sev")
    val labels = dd.features(StatKind.MeanStat, Seq(new AuxValues(aux)), cfg).map(_.label)
    assert(!labels.contains("aux:rain"), labels)
    assert(labels == dd.features(StatKind.MeanStat, Nil, cfg).map(_.label))

    val plain = rank(Nil)
    val joined = rank(Seq(aux))
    assert(plain.best.values("village") == "ofla-v1")
    joined.candidates.zip(plain.candidates).foreach { case (a, b) =>
      assert(a.values == b.values)
      val (p, q) = (a.predicted("mean"), b.predicted("mean"))
      assert(java.lang.Double.doubleToRawLongBits(p) == java.lang.Double.doubleToRawLongBits(q), s"${a.values}: $p vs $q")
      assert(a.score == b.score, s"${a.values}")
    }
  }
}

object ReptileSpec {
  /** years x districts x villages panel with a known (mostly flat)
    * measure. Enough parallel clusters that the multi-level model's shared
    * covariance is estimated from clean groups (as in the paper's setup).
    */
  def panel(seed: Long = 0, perGroup: Int = 20): Vector[(String, String, String, Double)] = {
    val rng = new Random(seed)
    for {
      y <- Vector("1984", "1985", "1986", "1987", "1988")
      d <- Vector("alaje", "bora", "ofla", "raya")
      v <- (0 until 4).toVector.map(i => s"$d-v$i")
      _ <- 0 until perGroup
    } yield (y, d, v, 7.0 + rng.nextGaussian() * 0.5)
  }

  val dims = Vector(
    Dimension("time", Vector("year")),
    Dimension("geo", Vector("district", "village")),
  )

  /** Spark jobs and stages started by `body`, counted by a listener. The
    * listener bus delivers events in order, so the work counted is that
    * between two marker jobs run before and after `body`.
    */
  def sparkWork(spark: SparkSession)(body: => Any): (Int, Int) = {
    val sc = spark.sparkContext
    val key = "reptile.spec.marker"
    // (is a job start, the marker property of its job)
    val events = new java.util.concurrent.ConcurrentLinkedQueue[(Boolean, String)]()
    def markerOf(p: java.util.Properties): String = Option(p).flatMap(p => Option(p.getProperty(key))).getOrElse("")
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = events.add((true, markerOf(e.properties)))
      override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = events.add((false, markerOf(e.properties)))
    }
    def marker(name: String): Unit = {
      sc.setLocalProperty(key, name)
      try sc.parallelize(Seq(1), 1).count() finally sc.setLocalProperty(key, null)
    }
    sc.addSparkListener(listener)
    try {
      marker("before")
      body
      marker("after")
      val deadline = System.nanoTime() + 30L * 1000 * 1000 * 1000
      while (!events.contains((true, "after")) && System.nanoTime() < deadline) Thread.sleep(10)
      val seen = events.asScala.toVector
      val (from, to) = (seen.indexOf((true, "before")), seen.indexOf((true, "after")))
      assert(from >= 0 && to >= 0, s"markers not seen: $seen")
      val window = seen.slice(from + 1, to).filter(_._2 == "")
      (window.count(_._1), window.count(!_._1))
    } finally sc.removeSparkListener(listener)
  }
}
