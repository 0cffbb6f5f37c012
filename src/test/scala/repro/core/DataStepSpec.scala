package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types.{DoubleType, StringType, StructField, StructType}
import repro.SparkSpec
import repro.core.reptile.{Dimension, Drilldown, GroupBuffers, Reptile}
import scala.util.Random

/** The engine's data step (one map-only stage, partial statistics merged on
  * the driver) against Spark's `groupBy` (`Reptile.drilldownStats`) on
  * random fact tables with a known partition layout.
  */
class DataStepSpec extends SparkSpec {

  private val time = Dimension("time", Vector("t"))
  private val geo = Dimension("geo", Vector("d", "v"))

  private val schema = StructType(Seq("t", "d", "v").map(StructField(_, StringType)) :+
    StructField("m", DoubleType))

  /** A random fact table in `parts` partitions, as rows per partition. Each
    * (t, d, v) group is a single row, several rows in one partition, or
    * several rows spread over random partitions; a third of the measures
    * come from a pool of three values, so values repeat within groups.
    * Rows are shuffled within each partition, so groups interleave.
    */
  private def layout(seed: Long, parts: Int): Vector[Vector[Row]] = {
    val rng = new Random(seed)
    val pool = Vector(1.5, 2.0, 7.25)
    def value(): Double = if (rng.nextInt(3) == 0) pool(rng.nextInt(3)) else 100.0 + 30.0 * rng.nextGaussian()
    val placed = for {
      t <- 0 until 3; d <- 0 until 3; v <- 0 until 4 if rng.nextDouble() < 0.8
      kind = rng.nextInt(3)
      home = rng.nextInt(parts)
      _ <- 0 until (if (kind == 0) 1 else 2 + rng.nextInt(6))
    } yield (if (kind == 2) rng.nextInt(parts) else home, Row(s"t$t", s"d$d", s"d$d-v$v", value()))
    Vector.tabulate(parts)(p => rng.shuffle(placed.filter(_._1 == p).map(_._2).toVector))
  }

  private def frame(rows: Vector[Vector[Row]]): DataFrame = {
    val rdd = spark.sparkContext.parallelize(rows, rows.size).flatMap(identity)
    assert(rdd.getNumPartitions == rows.size)
    spark.createDataFrame(rdd, schema)
  }

  /** Checks one collected drill-down against `drilldownStats` over its
    * attributes: the same groups, exact counts, and means, stds and sums
    * that are bit-equal for a group whose rows lie in one partition and
    * within 1e-12 relative otherwise. Returns how many groups of each kind
    * it saw: (in one partition, spread over several).
    */
  private def checkAgainstGroupBy(dd: Drilldown, fact: DataFrame, rows: Vector[Vector[Row]]): (Int, Int) = {
    val cols = dd.attrs.map(schema.fieldIndex)
    val partsOf = rows.indices.flatMap(p => rows(p).map(r => cols.map(r.getString) -> p))
      .groupMap(_._1)(_._2).view.mapValues(_.toSet).toMap
    val expected = Reptile.drilldownStats(fact, dd.attrs, "m").collect().map { r =>
      dd.attrs.indices.map(i => r.get(i).toString).toVector ->
        (r.getAs[Double]("stat_count"), r.getAs[Double]("stat_mean"), r.getAs[Double]("stat_std"),
          r.getAs[Double]("stat_sum"))
    }.toMap
    val keys = dd.stats.indices.map(g => dd.hiers.indices.flatMap(h => dd.hiers(h).rows(dd.groupRows(h)(g))).toVector)
    assert(keys.toSet == expected.keySet && keys.size == expected.size, dd.attrs)
    var whole, split = 0
    keys.indices.foreach { g =>
      val key = keys(g)
      val (count, mean, std, sum) = expected(key)
      assert(dd.stats(g).count == count, key)
      val got = Seq("mean" -> (dd.stats(g).mean, mean), "std" -> (dd.stats(g).std, std), "sum" -> (dd.sums(g), sum))
      if (partsOf(key).size == 1) {
        whole += 1
        got.foreach { case (name, (a, b)) =>
          assert(java.lang.Double.doubleToRawLongBits(a) == java.lang.Double.doubleToRawLongBits(b), s"$key $name: $a vs $b")
        }
      } else {
        split += 1
        got.foreach { case (name, (a, b)) =>
          assert(math.abs(a - b) <= 1e-12 * math.max(math.abs(a), math.abs(b)), s"$key $name: $a vs $b")
        }
      }
    }
    (whole, split)
  }

  test("one drill-down's statistics equal Spark's groupBy over 1, 3 and 7 partitions") {
    for (parts <- Seq(1, 3, 7); seed <- 0 until 3) {
      val rows = layout(seed, parts)
      val fact = frame(rows)
      val (whole, split) = checkAgainstGroupBy(Reptile.collectDrilldown(fact, Vector((time, 1), (geo, 2)), "m"), fact, rows)
      assert(whole > 0 && (split > 0) == (parts > 1), s"$parts partitions: $whole whole and $split split groups")
    }
  }

  test("several drill-downs in one pass equal Spark's groupBy per grouping") {
    val useds = Vector(Vector((time, 1), (geo, 2)), Vector((geo, 2)), Vector((time, 1)), Vector((geo, 1), (time, 1)))
    for (parts <- Seq(1, 3, 7)) {
      val rows = layout(10 + parts, parts)
      val fact = frame(rows)
      val dds = Reptile.collectDrilldowns(fact, useds, "m")
      assert(dds.map(_.attrs) == useds.map(Drilldown.attrsOf))
      val (whole, split) = dds.map(checkAgainstGroupBy(_, fact, rows)).unzip
      assert(whole.sum > 0 && (split.sum > 0) == (parts > 1), s"$parts partitions: $whole whole and $split split groups")
    }
  }

  test("the driver merges the tasks' buffers in partition order, bit for bit on every run") {
    // Partitions of uneven size, so tasks finish out of partition order;
    // every group has rows in several partitions, met in different orders.
    val rng = new Random(21)
    val rows = Vector(3000, 40, 900, 7, 1800, 120, 400).map(size => Vector.fill(size) {
      val d = rng.nextInt(3)
      Row(s"t${rng.nextInt(3)}", s"d$d", s"d$d-v${rng.nextInt(4)}", 100.0 + 30.0 * rng.nextGaussian())
    })
    val fact = frame(rows)
    val groupings = Vector(Vector("t", "d", "v"), Vector("d"), Vector("v", "t"))
    val cols = groupings.flatten.distinct
    val groupCols = groupings.map(_.map(cols.indexOf).toArray).toArray
    val (rdd, types) = Reptile.scan(fact, cols, "m")
    val perPartition = rdd.mapPartitions(it => Iterator(GroupBuffers.aggregate(it, types, groupCols))).collect()
    assert(perPartition.length == 7)
    val expected = groupings.indices.map { j =>
      val m = new GroupBuffers(groupings(j).size)
      perPartition.foreach(p => (0 until p(j).groups).foreach(g => m.merge(m.groupOf(p(j).key(g)), p(j), g)))
      m.pack()
    }
    def fields(b: GroupBuffers): Seq[(String, Seq[Long])] =
      Seq("rows" -> b.rows.toSeq, "keyStarts" -> b.keyStarts.map(_.toLong).toSeq,
        "keyBytes" -> b.keyBytes.map(_.toLong).toSeq) ++
        Seq("n" -> b.n, "avg" -> b.avg, "m2" -> b.m2, "sum" -> b.sum).map { case (f, a) =>
          f -> a.map(java.lang.Double.doubleToRawLongBits).toSeq
        }
    for (run <- 0 until 5) {
      val (merged, _) = Reptile.aggregate(fact, groupings, "m")
      groupings.indices.foreach { j =>
        assert(merged(j).groups == expected(j).groups, s"run $run, ${groupings(j)}")
        fields(merged(j)).zip(fields(expected(j))).foreach { case ((f, got), (_, want)) =>
          // A plain Boolean, so a failure names the field without printing the arrays.
          val same = got == want
          assert(same, s"run $run, ${groupings(j)}: $f differs")
        }
      }
    }
  }
}
