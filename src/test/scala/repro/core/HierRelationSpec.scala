package repro.core

import repro.SparkSpec
import repro.core.frep.{HierRelation, Seg}
import repro.core.reptile.{Dimension, Reptile}

class HierRelationSpec extends SparkSpec {

  private val geo = HierRelation("geo", Seq("district", "village"), Seq(
    Seq("ofla", "zata"), Seq("ofla", "adishim"), Seq("ofla", "darube"),
    Seq("raya", "fala"), Seq("raya", "dinka"),
  ))

  test("rows are sorted and distinct") {
    assert(geo.total == 5)
    assert(geo.rows == geo.rows.sorted(scala.math.Ordering.Implicits.seqOrdering[Vector, String]))
    val dup = HierRelation("d", Seq("a"), Seq(Seq("x"), Seq("x"), Seq("y")))
    assert(dup.total == 2)
  }

  test("countOf counts leaves per value") {
    assert(geo.countOf(0) == Map("ofla" -> 3, "raya" -> 2))
    assert(geo.countOf(1).values.forall(_ == 1))
  }

  test("segments are contiguous and cover all rows") {
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

  test("cofWithin counts pairs") {
    val h = HierRelation("h", Seq("a", "b", "c"), Seq(
      Seq("a1", "b1", "c1"), Seq("a1", "b1", "c2"), Seq("a1", "b2", "c3"), Seq("a2", "b3", "c4"),
    ))
    assert(h.cofWithin(0, 1) == Map(("a1", "b1") -> 2, ("a1", "b2") -> 1, ("a2", "b3") -> 1))
    assert(h.cofWithin(0, 2).values.forall(_ == 1))
  }

  test("parentBlocks groups children of the most specific attribute") {
    assert(geo.parentBlocks == Vector((0, 3), (3, 2)))
    val single = HierRelation("s", Seq("a"), Seq(Seq("x"), Seq("y")))
    assert(single.parentBlocks == Vector((0, 2)))
  }

  test("truncate produces distinct prefixes") {
    val t = geo.truncate(1)
    assert(t.total == 2)
    assert(t.rows == Vector(Vector("ofla"), Vector("raya")))
    assert(geo.truncate(2) eq geo)
  }

  test("rowIndexOf and blockOfPrefix") {
    assert(geo.rowIndexOf(Seq("ofla", "darube")) == geo.rows.indexOf(Vector("ofla", "darube")))
    assert(geo.blockOfPrefix(Seq("raya")) == (3, 5))
    assert(geo.blockOfPrefix(Nil) == (0, 5))
    intercept[NoSuchElementException](geo.rowIndexOf(Seq("nope", "nope")))
    intercept[IllegalArgumentException](geo.blockOfPrefix(Seq("nope")))
  }

  test("attrIndex resolves and rejects unknown attributes") {
    assert(geo.attrIndex("village") == 1)
    intercept[IllegalArgumentException](geo.attrIndex("nope"))
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
