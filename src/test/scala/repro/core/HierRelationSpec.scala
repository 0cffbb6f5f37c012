package repro.core

import repro.SparkSpec
import repro.core.frep.{HierRelation, Seg}
import repro.core.reptile.{Dimension, Reptile}
import scala.math.Ordering.Implicits.seqOrdering
import scala.util.Random

class HierRelationSpec extends SparkSpec {

  private val geo = HierRelation("geo", Seq("district", "village"), Seq(
    Seq("ofla", "zata"), Seq("ofla", "adishim"), Seq("ofla", "darube"),
    Seq("raya", "fala"), Seq("raya", "dinka"),
  ))

  /** Random FD-valid hierarchies of depth 1 to 4 (fixed seeds). Each value
    * is its own node of a random tree, so a child has one parent; values
    * start with a random number, so sorted order is not generation order.
    * The tuples come shuffled and with repeats.
    */
  private val randomHiers: Seq[HierRelation] = (1 to 24).map { seed =>
    val rng = new Random(seed)
    val depth = 1 + seed % 4
    var ids = 0
    def node(k: Int): String = { ids += 1; f"${rng.nextInt(100)}%02d-$k-$ids" }
    def paths(k: Int, prefix: Vector[String]): Seq[Vector[String]] =
      if (k == depth) Seq(prefix)
      else (0 to rng.nextInt(3)).flatMap(_ => paths(k + 1, prefix :+ node(k)))
    val leaves = (0 to rng.nextInt(4)).flatMap(_ => paths(0, Vector.empty))
    HierRelation(s"r$seed", (0 until depth).map(k => s"a$k"), rng.shuffle(leaves ++ leaves.take(3)))
  }

  /** Linear-scan definition: the runs [start, start + len) of rows sharing
    * their first `n` values.
    */
  private def runsOf(rows: Vector[Vector[String]], n: Int): Vector[(Int, Int)] =
    rows.indices.filter(i => i == 0 || rows(i).take(n) != rows(i - 1).take(n)).toVector
      .map(s => (s, rows.indexWhere(_.take(n) != rows(s).take(n), s) match { case -1 => rows.size - s; case e => e - s }))

  /** Linear-scan definition of `blockOfPrefix`: the rows that start with `p`. */
  private def rowsUnder(rows: Vector[Vector[String]], p: Vector[String]): Option[(Int, Int)] = {
    val hits = rows.indices.filter(rows(_).take(p.size) == p)
    if (hits.isEmpty) None else Some((hits.head, hits.last + 1))
  }

  test("rows are sorted and distinct") {
    assert(geo.total == 5)
    assert(geo.rows == geo.rows.sorted(scala.math.Ordering.Implicits.seqOrdering[Vector, String]))
    val dup = HierRelation("d", Seq("a"), Seq(Seq("x"), Seq("x"), Seq("y")))
    assert(dup.total == 2)
  }

  test("countOf counts leaves per value") {
    // A value's COUNT is the length of its run.
    assert(geo.segments(0).map(s => s.value -> s.len) == Vector("ofla" -> 3, "raya" -> 2))
    assert(geo.segments(1).forall(_.len == 1))
  }

  test("cofWithin counts pairs") {
    // A value has one parent, so its COF with any ancestor is its run length.
    val h = HierRelation("h", Seq("a", "b", "c"), Seq(
      Seq("a1", "b1", "c1"), Seq("a1", "b1", "c2"), Seq("a1", "b2", "c3"), Seq("a2", "b3", "c4"),
    ))
    assert(h.segments(1).map(s => (h.rows(s.start)(0), s.value) -> s.len) ==
      Vector(("a1", "b1") -> 2, ("a1", "b2") -> 1, ("a2", "b3") -> 1))
    assert(h.segments(2).forall(_.len == 1))
  }

  test("segments are contiguous and cover all rows") {
    randomHiers.foreach { h =>
      assert(h.segments == (1 to h.depth).map(n => runsOf(h.rows, n).map { case (s, l) => Seg(h.rows(s)(n - 1), s, l) }),
        h.dim)
    }
    geo.segments.foreach { segs =>
      assert(segs.map(_.len).sum == geo.total)
      segs.sliding(2).foreach {
        case Vector(a, b) => assert(a.start + a.len == b.start)
        case _            =>
      }
    }
  }

  test("segment order matches row order") {
    assert(geo.segments(0) == Vector(Seg("ofla", 0, 3), Seg("raya", 3, 2)))
  }

  test("FD violation is rejected") {
    // village 'zata' under two districts
    val ex = intercept[IllegalArgumentException] {
      HierRelation("bad", Seq("d", "v"), Seq(Seq("a", "zata"), Seq("b", "zata"))).segments
    }
    assert(ex.getMessage.contains("FD violation"))
  }

  test("parentBlocks groups children of the most specific attribute") {
    assert(geo.parentBlocks == Vector((0, 3), (3, 2)))
    val single = HierRelation("s", Seq("a"), Seq(Seq("x"), Seq("y")))
    assert(single.parentBlocks == Vector((0, 2)))
    randomHiers.foreach { h =>
      assert(h.parentBlocks == (if (h.depth == 1) Vector((0, h.total)) else runsOf(h.rows, h.depth - 1)), h.dim)
    }
  }

  test("rowIndexOf and blockOfPrefix") {
    assert(geo.rowIndexOf(Seq("ofla", "darube")) == geo.rows.indexOf(Vector("ofla", "darube")))
    assert(geo.blockOfPrefix(Seq("raya")) == (3, 5))
    assert(geo.blockOfPrefix(Nil) == (0, 5))
    intercept[NoSuchElementException](geo.rowIndexOf(Seq("nope", "nope")))
    intercept[IllegalArgumentException](geo.blockOfPrefix(Seq("nope")))
    def notFound(h: HierRelation, p: Seq[String]): Unit = {
      val ex = intercept[IllegalArgumentException](h.blockOfPrefix(p))
      assert(ex.getMessage.contains(s"prefix ${p.mkString(",")} not found in hierarchy ${h.dim}"))
    }
    notFound(geo, Seq("ofla", "zata", "x")) // longer than the depth
    notFound(geo, Seq("raya", "zata")) // zata exists, under ofla
    // Every prefix of every row, each row's prefixes with another row's
    // value appended (mostly under another parent) and prefixes longer
    // than the depth, against the linear scan.
    randomHiers.foreach { h =>
      val rng = new Random(h.total)
      val prefixes = h.rows.flatMap(r => (0 to h.depth).map(r.take)) ++
        h.rows.flatMap(r => (1 until h.depth).map(k => r.take(k) :+ h.rows(rng.nextInt(h.total))(k))) ++
        h.rows.map(_ :+ "x")
      prefixes.foreach { p =>
        rowsUnder(h.rows, p) match {
          case Some(range) => assert(h.blockOfPrefix(p) == range, s"${h.dim} ${p.mkString(",")}")
          case None        => notFound(h, p)
        }
      }
      h.rows.indices.foreach(i => assert(h.rowIndexOf(h.rows(i)) == i))
    }
  }

  test("fromDataFrame extracts distinct sorted tuples") {
    import spark.implicits._
    val df = Seq(("ofla", "zata", 1.0), ("ofla", "zata", 2.0), ("raya", "fala", 3.0))
      .toDF("district", "village", "v")
    val h = HierRelation.fromDataFrame(df, "geo", Seq("district", "village"))
    assert(h.total == 2)
    assert(h.rows == Vector(Vector("ofla", "zata"), Vector("raya", "fala")))
  }

  test("empty hierarchy is rejected") {
    intercept[IllegalArgumentException](HierRelation("e", Seq("a"), Nil))
  }

  test("relations projected from statistic keys equal fromDataFrame") {
    import spark.implicits._
    val df = Seq(
      ("1986", "ofla", "zata", 1.0), ("1986", "ofla", "zata", 2.0), ("1987", "ofla", "darube", 3.0),
      ("1987", "raya", "fala", 4.0), ("1986", "raya", "dinka", 5.0),
    ).toDF("year", "district", "village", "v")
    val used = Vector((Dimension("time", Vector("year")), 1), (Dimension("geo", Vector("district", "village")), 2))
    val hiers = Reptile.collectDrilldown(df, used, "v").hiers
    assert(hiers(0).rows == HierRelation.fromDataFrame(df, "time", Seq("year")).rows)
    assert(hiers(1).rows == HierRelation.fromDataFrame(df, "geo", Seq("district", "village")).rows)
    assert(hiers(1).dim == "geo" && hiers(1).attrs == Vector("district", "village"))
  }

  test("relations projected from statistic keys of non-string attributes equal fromDataFrame") {
    import spark.implicits._
    val day = java.sql.Date.valueOf(_: String)
    val at = java.sql.Timestamp.valueOf(_: String)
    // Orders that differ from String's: "\uff61" sorts before "\ud83d\ude00"
    // in UTF-8 bytes and after it in String order; 9 < 10 as numbers, but
    // "10" < "9".
    val df = Seq(
      (1, 1L << 40, 1.5, true, day("2020-03-01"), at("2020-03-01 10:00:00"), "\uff61", 1.0),
      (1, 1L << 40, 1e20, false, day("1999-12-31"), at("1999-12-31 23:59:59.5"), "\ud83d\ude00", 2.0),
      (-7, -3L, 0.1, true, day("2020-03-01"), at("2020-03-01 10:00:00"), "a", 3.0),
      (42, 0L, -0.0, false, day("1970-01-01"), at("1970-01-01 00:00:00"), "\uff61", 4.0),
      (42, 0L, 0.0, true, day("2020-02-29"), at("2020-02-29 12:30:00"), "\ud83d\ude00", 5.0),
      (9, 5L, 2.5, true, day("2020-03-01"), at("2020-03-01 10:00:00"), "Z", 6.0),
      (10, 5L, 2.5, true, day("2020-03-01"), at("2020-03-01 10:00:00"), "\ud83d\ude00", 7.0),
    ).toDF("i", "l", "d", "b", "day", "ts", "s", "v")
    val attrs = Vector("i", "l", "d", "b", "day", "ts", "s")
    val used = attrs.map(a => (Dimension(a, Vector(a)), 1))
    val dd = Reptile.collectDrilldown(df, used, "v")
    val hiers = dd.hiers
    attrs.zip(hiers).foreach { case (a, h) =>
      assert(h.rows == HierRelation.fromDataFrame(df, a, Seq(a)).rows, a)
    }
    assert(hiers(2).rows.flatten.count(_ == "0.0") == 1 && !hiers(2).rows.flatten.contains("-0.0"))
    // Every group is one fact row with its own measure, so a group whose
    // hierarchy rows point at another group's values gets that group's sum.
    val sumOf = Reptile.drilldownStats(df, attrs, "v").collect()
      .map(r => attrs.indices.map(i => r.get(i).toString).toVector -> r.getAs[Double]("stat_sum")).toMap
    assert(dd.stats.size == 7 && sumOf.size == 7)
    dd.stats.indices.foreach { g =>
      val key = hiers.indices.flatMap(h => hiers(h).rows(dd.groupRows(h)(g))).toVector
      assert(sumOf.get(key).contains(dd.sums(g)), s"group $g: $key has sum ${dd.sums(g)}")
    }
  }

  test("relations projected from statistic keys fail on an FD violation like fromDataFrame") {
    import spark.implicits._
    // zata appears under two districts
    val df = Seq(("1986", "ofla", "zata", 1.0), ("1986", "raya", "zata", 2.0), ("1987", "raya", "fala", 3.0))
      .toDF("year", "district", "village", "v")
    val used = Vector((Dimension("time", Vector("year")), 1), (Dimension("geo", Vector("district", "village")), 2))
    val fromStats = intercept[IllegalArgumentException](Reptile.collectDrilldown(df, used, "v"))
    val fromDf = intercept[IllegalArgumentException](
      HierRelation.fromDataFrame(df, "geo", Seq("district", "village")))
    assert(fromStats.getMessage == fromDf.getMessage)
    assert(fromStats.getMessage.contains("FD violation"))
  }

  test("null attribute values are rejected, naming the attribute") {
    import spark.implicits._
    val df = Seq(("ofla", "zata", 1.0), ("ofla", null, 2.0)).toDF("district", "village", "v")
    val used = Vector((Dimension("geo", Vector("district", "village")), 2))
    val fromStats = intercept[IllegalArgumentException](Reptile.collectDrilldown(df, used, "v"))
    assert(fromStats.getMessage.contains("village"))
    val fromDf = intercept[IllegalArgumentException](
      HierRelation.fromDataFrame(df, "geo", Seq("district", "village")))
    assert(fromDf.getMessage.contains("village"))
  }
}
