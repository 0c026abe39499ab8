package tpch

import (
	"fmt"

	"assasin/internal/kernels"
)

// QuerySpec describes one TPC-H query: the scan pushed down to the
// computational SSD (the Parse/Select/Filter pipeline over the query's
// primary — largest — table) and the host-side remainder of the plan.
//
// Approximations relative to reference TPC-H, all recorded in DESIGN.md:
// string predicates operate on dictionary codes or hash buckets; Q12's
// two-value ship-mode IN-list becomes the adjacent code range; only the
// primary table's scan is charged for parsing (dimension tables are assumed
// host-cached, as a warm SparkSQL run would have them).
type QuerySpec struct {
	ID    int
	Name  string
	Table string // primary table scanned from storage
	// PSF is the pushed-down Parse/Select/Filter pipeline; PSF.Project
	// defines the column order of the rows handed to Body.
	PSF kernels.PSF
	// Body finishes the query on the host given the scan output.
	Body func(e *Exec, scan *Relation) *Relation
}

// pred builds a PSF range predicate.
func pred(col int, lo, hi int64) kernels.PSFPred {
	return kernels.PSFPred{Col: col, Lo: uint32(lo), Hi: uint32(hi)}
}

// ScanRelation runs the query's Parse/Select/Filter on the host side
// (reference semantics for the SSD offload, and the PureCPU/no-offload
// path). The returned relation has PSF.Project column order.
func (q *QuerySpec) ScanRelation(ds *Dataset) *Relation {
	src := ds.Tables()[q.Table]
	out := &Relation{Name: q.Table + "_scan"}
	for _, row := range src.Rows {
		ok := true
		for _, p := range q.PSF.Preds {
			v := row[p.Col]
			if v < int64(p.Lo) || v > int64(p.Hi) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		nr := make([]int64, len(q.PSF.Project))
		for i, c := range q.PSF.Project {
			nr[i] = row[c]
		}
		out.Rows = append(out.Rows, nr)
	}
	return out
}

// revenue computes extendedprice*(10000-discount)/10000 given cents and
// basis points.
func revenue(price, discBp int64) int64 { return price * (10000 - discBp) / 10000 }

// Queries returns all 22 query specs.
func Queries() []*QuerySpec {
	return []*QuerySpec{
		q1(), q2(), q3(), q4(), q5(), q6(), q7(), q8(), q9(), q10(), q11(),
		q12(), q13(), q14(), q15(), q16(), q17(), q18(), q19(), q20(), q21(), q22(),
	}
}

// QueryByID returns query n (1-22).
func QueryByID(n int) (*QuerySpec, error) {
	qs := Queries()
	if n < 1 || n > len(qs) {
		return nil, fmt.Errorf("tpch: no query %d", n)
	}
	return qs[n-1], nil
}

// --- Q1: pricing summary report ---
func q1() *QuerySpec {
	// scan cols: 0 qty, 1 price, 2 disc, 3 tax, 4 flag, 5 status, 6 shipdate
	return &QuerySpec{
		ID: 1, Name: "pricing-summary", Table: "lineitem",
		PSF: kernels.PSF{
			NumFields: LineitemCols,
			Project:   []int{LQuantity, LExtendedPrice, LDiscount, LTax, LReturnFlag, LLineStatus, LShipDate},
			Preds:     []kernels.PSFPred{pred(LShipDate, 0, 19980802)},
		},
		Body: func(e *Exec, scan *Relation) *Relation {
			g := e.GroupBy(scan,
				func(r []int64) []int64 { return []int64{r[4], r[5]} },
				[]AggSpec{
					{Kind: AggSum, Value: func(r []int64) int64 { return r[0] }},
					{Kind: AggSum, Value: func(r []int64) int64 { return r[1] }},
					{Kind: AggSum, Value: func(r []int64) int64 { return revenue(r[1], r[2]) }},
					{Kind: AggSum, Value: func(r []int64) int64 { return revenue(r[1], r[2]) * (10000 + r[3]) / 10000 }},
					{Kind: AggAvg, Value: func(r []int64) int64 { return r[0] }},
					{Kind: AggCount},
				})
			return e.OrderBy(g, func(a, b []int64) bool {
				if a[0] != b[0] {
					return a[0] < b[0]
				}
				return a[1] < b[1]
			})
		},
	}
}

// --- Q2: minimum cost supplier ---
func q2() *QuerySpec {
	// scan cols: 0 partkey, 1 suppkey, 2 supplycost
	return &QuerySpec{
		ID: 2, Name: "min-cost-supplier", Table: "partsupp",
		PSF: kernels.PSF{
			NumFields: PartsuppCols,
			Project:   []int{PSPartKey, PSSuppKey, PSSupplyCost},
		},
		Body: func(e *Exec, scan *Relation) *Relation {
			// Parts of size 15 and type ≡ brass (code band 30-44).
			parts := e.Filter(e.DS.Part, func(r []int64) bool {
				return r[PSize] == 15 && r[PType] >= 30 && r[PType] < 45
			})
			ps := e.HashJoin(e.Project(parts, PPartKey), scan, 0, 0)
			// cols: 0 p_partkey | 1 partkey, 2 suppkey, 3 cost
			// Suppliers in region 3 (EUROPE): nation%5 == 3.
			sups := e.Filter(e.DS.Supplier, func(r []int64) bool { return r[SNationKey]%5 == 3 })
			supKeys := map[int64]bool{}
			for _, r := range sups.Rows {
				supKeys[r[SSuppKey]] = true
			}
			ps = e.Filter(ps, func(r []int64) bool { return supKeys[r[2]] })
			minCost := e.GroupBy(ps,
				func(r []int64) []int64 { return []int64{r[0]} },
				[]AggSpec{{Kind: AggMin, Value: func(r []int64) int64 { return r[3] }}})
			// Keep (part, supp) pairs achieving the min.
			min := map[int64]int64{}
			for _, r := range minCost.Rows {
				min[r[0]] = r[1]
			}
			out := e.Filter(ps, func(r []int64) bool { return r[3] == min[r[0]] })
			return e.Limit(e.OrderBy(out, func(a, b []int64) bool { return a[0] < b[0] }), 100)
		},
	}
}

// --- Q3: shipping priority ---
func q3() *QuerySpec {
	// scan cols: 0 orderkey, 1 price, 2 disc, 3 shipdate
	return &QuerySpec{
		ID: 3, Name: "shipping-priority", Table: "lineitem",
		PSF: kernels.PSF{
			NumFields: LineitemCols,
			Project:   []int{LOrderKey, LExtendedPrice, LDiscount, LShipDate},
			Preds:     []kernels.PSFPred{pred(LShipDate, 19950316, 99999999)},
		},
		Body: func(e *Exec, scan *Relation) *Relation {
			cust := e.Filter(e.DS.Customer, func(r []int64) bool { return r[CMktSegment] == SegBuilding })
			ords := e.Filter(e.DS.Orders, func(r []int64) bool { return r[OOrderDate] < 19950315 })
			co := e.HashJoin(e.Project(cust, CCustKey), ords, 0, OCustKey)
			// co: 0 custkey | 1.. orders cols (orderkey at 1)
			col := e.HashJoin(e.Project(co, 1, 1+OOrderDate, 1+OShipPriority), scan, 0, 0)
			// col: 0 orderkey, 1 odate, 2 shippri | 3 okey, 4 price, 5 disc, 6 sdate
			g := e.GroupBy(col,
				func(r []int64) []int64 { return []int64{r[0], r[1], r[2]} },
				[]AggSpec{{Kind: AggSum, Value: func(r []int64) int64 { return revenue(r[4], r[5]) }}})
			return e.Limit(e.OrderBy(g, func(a, b []int64) bool { return a[3] > b[3] }), 10)
		},
	}
}

// --- Q4: order priority checking ---
func q4() *QuerySpec {
	// scan cols: 0 orderkey, 1 commitdate, 2 receiptdate
	return &QuerySpec{
		ID: 4, Name: "order-priority", Table: "lineitem",
		PSF: kernels.PSF{
			NumFields: LineitemCols,
			Project:   []int{LOrderKey, LCommitDate, LReceiptDate},
		},
		Body: func(e *Exec, scan *Relation) *Relation {
			late := e.Filter(scan, func(r []int64) bool { return r[1] < r[2] })
			ords := e.Filter(e.DS.Orders, func(r []int64) bool {
				return r[OOrderDate] >= 19930701 && r[OOrderDate] < 19931001
			})
			matched := e.SemiJoin(late, 0, ords, OOrderKey)
			g := e.GroupBy(matched,
				func(r []int64) []int64 { return []int64{r[OOrderPriority]} },
				[]AggSpec{{Kind: AggCount}})
			return e.OrderBy(g, func(a, b []int64) bool { return a[0] < b[0] })
		},
	}
}

// --- Q5: local supplier volume ---
func q5() *QuerySpec {
	// scan cols: 0 orderkey, 1 suppkey, 2 price, 3 disc
	return &QuerySpec{
		ID: 5, Name: "local-supplier-volume", Table: "lineitem",
		PSF: kernels.PSF{
			NumFields: LineitemCols,
			Project:   []int{LOrderKey, LSuppKey, LExtendedPrice, LDiscount},
		},
		Body: func(e *Exec, scan *Relation) *Relation {
			// Region 2 (ASIA): nations n with n%5 == 2; orders in 1994.
			ords := e.Filter(e.DS.Orders, func(r []int64) bool {
				return r[OOrderDate] >= 19940101 && r[OOrderDate] < 19950101
			})
			cust := e.Filter(e.DS.Customer, func(r []int64) bool { return r[CNationKey]%5 == 2 })
			co := e.HashJoin(e.Project(cust, CCustKey, CNationKey), ords, 0, OCustKey)
			// co: 0 custkey, 1 cnation | 2.. orders (orderkey at 2)
			col := e.HashJoin(e.Project(co, 1, 2), scan, 1, 0)
			// col: 0 cnation, 1 orderkey | 2 okey, 3 suppkey, 4 price, 5 disc
			supNation := map[int64]int64{}
			for _, r := range e.DS.Supplier.Rows {
				supNation[r[SSuppKey]] = r[SNationKey]
			}
			local := e.Filter(col, func(r []int64) bool { return supNation[r[3]] == r[0] })
			g := e.GroupBy(local,
				func(r []int64) []int64 { return []int64{r[0]} },
				[]AggSpec{{Kind: AggSum, Value: func(r []int64) int64 { return revenue(r[4], r[5]) }}})
			return e.OrderBy(g, func(a, b []int64) bool { return a[1] > b[1] })
		},
	}
}

// --- Q6: forecasting revenue change ---
func q6() *QuerySpec {
	// scan cols: 0 qty, 1 price, 2 disc, 3 shipdate
	return &QuerySpec{
		ID: 6, Name: "revenue-forecast", Table: "lineitem",
		PSF: kernels.PSF{
			NumFields: LineitemCols,
			Project:   []int{LQuantity, LExtendedPrice, LDiscount, LShipDate},
			Preds: []kernels.PSFPred{
				pred(LShipDate, 19940101, 19941231),
				pred(LDiscount, 500, 700),
			},
		},
		Body: func(e *Exec, scan *Relation) *Relation {
			small := e.Filter(scan, func(r []int64) bool { return r[0] < 24 })
			g := e.GroupBy(small,
				func(r []int64) []int64 { return []int64{0} },
				[]AggSpec{{Kind: AggSum, Value: func(r []int64) int64 { return r[1] * r[2] / 10000 }}})
			return g
		},
	}
}

// --- Q7: volume shipping between two nations ---
func q7() *QuerySpec {
	// scan cols: 0 orderkey, 1 suppkey, 2 price, 3 disc, 4 shipdate
	return &QuerySpec{
		ID: 7, Name: "volume-shipping", Table: "lineitem",
		PSF: kernels.PSF{
			NumFields: LineitemCols,
			Project:   []int{LOrderKey, LSuppKey, LExtendedPrice, LDiscount, LShipDate},
			Preds:     []kernels.PSFPred{pred(LShipDate, 19950101, 19961231)},
		},
		Body: func(e *Exec, scan *Relation) *Relation {
			const n1, n2 = 6, 7 // FRANCE, GERMANY stand-ins
			supNation := map[int64]int64{}
			for _, r := range e.DS.Supplier.Rows {
				supNation[r[SSuppKey]] = r[SNationKey]
			}
			custNation := map[int64]int64{}
			for _, r := range e.DS.Customer.Rows {
				custNation[r[CCustKey]] = r[CNationKey]
			}
			ordCust := map[int64]int64{}
			for _, r := range e.DS.Orders.Rows {
				ordCust[r[OOrderKey]] = r[OCustKey]
			}
			e.Work.JoinUnits += costJoinProbe * float64(len(scan.Rows)+len(e.DS.Orders.Rows)+len(e.DS.Customer.Rows))
			pairs := e.Filter(scan, func(r []int64) bool {
				sn := supNation[r[1]]
				cn := custNation[ordCust[r[0]]]
				return (sn == n1 && cn == n2) || (sn == n2 && cn == n1)
			})
			g := e.GroupBy(pairs,
				func(r []int64) []int64 { return []int64{supNation[r[1]], r[4] / 10000} },
				[]AggSpec{{Kind: AggSum, Value: func(r []int64) int64 { return revenue(r[2], r[3]) }}})
			return e.OrderBy(g, func(a, b []int64) bool {
				if a[0] != b[0] {
					return a[0] < b[0]
				}
				return a[1] < b[1]
			})
		},
	}
}

// --- Q8: national market share ---
func q8() *QuerySpec {
	// scan cols: 0 partkey, 1 suppkey, 2 orderkey, 3 price, 4 disc
	return &QuerySpec{
		ID: 8, Name: "market-share", Table: "lineitem",
		PSF: kernels.PSF{
			NumFields: LineitemCols,
			Project:   []int{LPartKey, LSuppKey, LOrderKey, LExtendedPrice, LDiscount},
		},
		Body: func(e *Exec, scan *Relation) *Relation {
			parts := map[int64]bool{}
			for _, r := range e.DS.Part.Rows {
				if r[PType] == 100 { // one specific type
					parts[r[PPartKey]] = true
				}
			}
			ordDate := map[int64]int64{}
			ordCust := map[int64]int64{}
			for _, r := range e.DS.Orders.Rows {
				ordDate[r[OOrderKey]] = r[OOrderDate]
				ordCust[r[OOrderKey]] = r[OCustKey]
			}
			custNation := map[int64]int64{}
			for _, r := range e.DS.Customer.Rows {
				custNation[r[CCustKey]] = r[CNationKey]
			}
			supNation := map[int64]int64{}
			for _, r := range e.DS.Supplier.Rows {
				supNation[r[SSuppKey]] = r[SNationKey]
			}
			e.Work.JoinUnits += costJoinProbe * float64(len(scan.Rows))
			sel := e.Filter(scan, func(r []int64) bool {
				if !parts[r[0]] {
					return false
				}
				d := ordDate[r[2]]
				if d < 19950101 || d > 19961231 {
					return false
				}
				return custNation[ordCust[r[2]]]%5 == 1 // region AMERICA stand-in
			})
			g := e.GroupBy(sel,
				func(r []int64) []int64 {
					year := ordDate[r[2]] / 10000
					isNation := int64(0)
					if supNation[r[1]] == 11 {
						isNation = 1
					}
					return []int64{year, isNation}
				},
				[]AggSpec{{Kind: AggSum, Value: func(r []int64) int64 { return revenue(r[3], r[4]) }}})
			return e.OrderBy(g, func(a, b []int64) bool {
				if a[0] != b[0] {
					return a[0] < b[0]
				}
				return a[1] < b[1]
			})
		},
	}
}

// --- Q9: product type profit measure ---
func q9() *QuerySpec {
	// scan cols: 0 partkey, 1 suppkey, 2 orderkey, 3 qty, 4 price, 5 disc
	return &QuerySpec{
		ID: 9, Name: "product-profit", Table: "lineitem",
		PSF: kernels.PSF{
			NumFields: LineitemCols,
			Project:   []int{LPartKey, LSuppKey, LOrderKey, LQuantity, LExtendedPrice, LDiscount},
		},
		Body: func(e *Exec, scan *Relation) *Relation {
			greenParts := map[int64]bool{}
			for _, r := range e.DS.Part.Rows {
				if r[PName] < 1000 { // "%green%" bucket band
					greenParts[r[PPartKey]] = true
				}
			}
			cost := map[[2]int64]int64{}
			for _, r := range e.DS.Partsupp.Rows {
				cost[[2]int64{r[PSPartKey], r[PSSuppKey]}] = r[PSSupplyCost]
			}
			ordYear := map[int64]int64{}
			for _, r := range e.DS.Orders.Rows {
				ordYear[r[OOrderKey]] = r[OOrderDate] / 10000
			}
			supNation := map[int64]int64{}
			for _, r := range e.DS.Supplier.Rows {
				supNation[r[SSuppKey]] = r[SNationKey]
			}
			e.Work.JoinUnits += costJoinProbe * float64(len(scan.Rows)*2)
			sel := e.Filter(scan, func(r []int64) bool { return greenParts[r[0]] })
			g := e.GroupBy(sel,
				func(r []int64) []int64 { return []int64{supNation[r[1]], ordYear[r[2]]} },
				[]AggSpec{{Kind: AggSum, Value: func(r []int64) int64 {
					return revenue(r[4], r[5]) - cost[[2]int64{r[0], r[1]}]*r[3]
				}}})
			return e.OrderBy(g, func(a, b []int64) bool {
				if a[0] != b[0] {
					return a[0] < b[0]
				}
				return a[1] > b[1]
			})
		},
	}
}

// --- Q10: returned item reporting ---
func q10() *QuerySpec {
	// scan cols: 0 orderkey, 1 price, 2 disc, 3 returnflag
	return &QuerySpec{
		ID: 10, Name: "returned-items", Table: "lineitem",
		PSF: kernels.PSF{
			NumFields: LineitemCols,
			Project:   []int{LOrderKey, LExtendedPrice, LDiscount, LReturnFlag},
			Preds:     []kernels.PSFPred{pred(LReturnFlag, FlagR, FlagR)},
		},
		Body: func(e *Exec, scan *Relation) *Relation {
			ords := e.Filter(e.DS.Orders, func(r []int64) bool {
				return r[OOrderDate] >= 19931001 && r[OOrderDate] < 19940101
			})
			ol := e.HashJoin(e.Project(ords, OOrderKey, OCustKey), scan, 0, 0)
			// 0 okey, 1 custkey | 2 okey, 3 price, 4 disc, 5 flag
			g := e.GroupBy(ol,
				func(r []int64) []int64 { return []int64{r[1]} },
				[]AggSpec{{Kind: AggSum, Value: func(r []int64) int64 { return revenue(r[3], r[4]) }}})
			return e.Limit(e.OrderBy(g, func(a, b []int64) bool { return a[1] > b[1] }), 20)
		},
	}
}

// --- Q11: important stock identification ---
func q11() *QuerySpec {
	// scan cols: 0 partkey, 1 suppkey, 2 availqty, 3 supplycost
	return &QuerySpec{
		ID: 11, Name: "important-stock", Table: "partsupp",
		PSF: kernels.PSF{
			NumFields: PartsuppCols,
			Project:   []int{PSPartKey, PSSuppKey, PSAvailQty, PSSupplyCost},
		},
		Body: func(e *Exec, scan *Relation) *Relation {
			const nation = 7 // GERMANY stand-in
			sup := map[int64]bool{}
			for _, r := range e.DS.Supplier.Rows {
				if r[SNationKey] == nation {
					sup[r[SSuppKey]] = true
				}
			}
			nat := e.Filter(scan, func(r []int64) bool { return sup[r[1]] })
			var total int64
			for _, r := range nat.Rows {
				total += r[3] * r[2]
			}
			g := e.GroupBy(nat,
				func(r []int64) []int64 { return []int64{r[0]} },
				[]AggSpec{{Kind: AggSum, Value: func(r []int64) int64 { return r[3] * r[2] }}})
			threshold := total / 10000 // fraction 0.0001
			out := e.Filter(g, func(r []int64) bool { return r[1] > threshold })
			return e.OrderBy(out, func(a, b []int64) bool { return a[1] > b[1] })
		},
	}
}

// --- Q12: shipping modes and order priority ---
func q12() *QuerySpec {
	// scan cols: 0 orderkey, 1 shipmode, 2 commitdate, 3 receiptdate, 4 shipdate
	return &QuerySpec{
		ID: 12, Name: "shipping-modes", Table: "lineitem",
		PSF: kernels.PSF{
			NumFields: LineitemCols,
			Project:   []int{LOrderKey, LShipMode, LCommitDate, LReceiptDate, LShipDate},
			Preds: []kernels.PSFPred{
				pred(LShipMode, ModeRail, ModeShip), // adjacent-code stand-in for IN ('MAIL','SHIP')
				pred(LReceiptDate, 19940101, 19941231),
			},
		},
		Body: func(e *Exec, scan *Relation) *Relation {
			ok := e.Filter(scan, func(r []int64) bool { return r[2] < r[3] && r[4] < r[2] })
			pri := map[int64]int64{}
			for _, r := range e.DS.Orders.Rows {
				pri[r[OOrderKey]] = r[OOrderPriority]
			}
			e.Work.JoinUnits += costJoinProbe * float64(len(ok.Rows))
			g := e.GroupBy(ok,
				func(r []int64) []int64 { return []int64{r[1]} },
				[]AggSpec{
					{Kind: AggSum, Value: func(r []int64) int64 {
						if p := pri[r[0]]; p <= 1 {
							return 1
						}
						return 0
					}},
					{Kind: AggSum, Value: func(r []int64) int64 {
						if p := pri[r[0]]; p > 1 {
							return 1
						}
						return 0
					}},
				})
			return e.OrderBy(g, func(a, b []int64) bool { return a[0] < b[0] })
		},
	}
}

// --- Q13: customer distribution ---
func q13() *QuerySpec {
	// scan cols: 0 orderkey, 1 custkey, 2 comment
	return &QuerySpec{
		ID: 13, Name: "customer-distribution", Table: "orders",
		PSF: kernels.PSF{
			NumFields: OrdersCols,
			Project:   []int{OOrderKey, OCustKey, OComment},
			Preds:     []kernels.PSFPred{pred(OComment, 0, 9499)}, // NOT LIKE '%special%requests%' bucket band
		},
		Body: func(e *Exec, scan *Relation) *Relation {
			counts := e.GroupBy(scan,
				func(r []int64) []int64 { return []int64{r[1]} },
				[]AggSpec{{Kind: AggCount}})
			perCust := map[int64]int64{}
			for _, r := range counts.Rows {
				perCust[r[0]] = r[1]
			}
			e.Work.JoinUnits += costJoinProbe * float64(len(e.DS.Customer.Rows))
			dist := e.GroupBy(e.DS.Customer,
				func(r []int64) []int64 { return []int64{perCust[r[CCustKey]]} },
				[]AggSpec{{Kind: AggCount}})
			return e.OrderBy(dist, func(a, b []int64) bool { return a[1] > b[1] })
		},
	}
}

// --- Q14: promotion effect ---
func q14() *QuerySpec {
	// scan cols: 0 partkey, 1 price, 2 disc, 3 shipdate
	return &QuerySpec{
		ID: 14, Name: "promotion-effect", Table: "lineitem",
		PSF: kernels.PSF{
			NumFields: LineitemCols,
			Project:   []int{LPartKey, LExtendedPrice, LDiscount, LShipDate},
			Preds:     []kernels.PSFPred{pred(LShipDate, 19950901, 19950930)},
		},
		Body: func(e *Exec, scan *Relation) *Relation {
			promo := map[int64]bool{}
			for _, r := range e.DS.Part.Rows {
				if r[PType] < 30 { // PROMO% band
					promo[r[PPartKey]] = true
				}
			}
			e.Work.JoinUnits += costJoinProbe * float64(len(scan.Rows))
			var promoRev, totalRev int64
			for _, r := range scan.Rows {
				rev := revenue(r[1], r[2])
				totalRev += rev
				if promo[r[0]] {
					promoRev += rev
				}
			}
			e.Work.AggUnits += costAggRow * float64(len(scan.Rows))
			share := int64(0)
			if totalRev > 0 {
				share = promoRev * 10000 / totalRev
			}
			return FromRows("q14", [][]int64{{share, promoRev, totalRev}})
		},
	}
}

// --- Q15: top supplier ---
func q15() *QuerySpec {
	// scan cols: 0 suppkey, 1 price, 2 disc, 3 shipdate
	return &QuerySpec{
		ID: 15, Name: "top-supplier", Table: "lineitem",
		PSF: kernels.PSF{
			NumFields: LineitemCols,
			Project:   []int{LSuppKey, LExtendedPrice, LDiscount, LShipDate},
			Preds:     []kernels.PSFPred{pred(LShipDate, 19960101, 19960331)},
		},
		Body: func(e *Exec, scan *Relation) *Relation {
			g := e.GroupBy(scan,
				func(r []int64) []int64 { return []int64{r[0]} },
				[]AggSpec{{Kind: AggSum, Value: func(r []int64) int64 { return revenue(r[1], r[2]) }}})
			var max int64
			for _, r := range g.Rows {
				if r[1] > max {
					max = r[1]
				}
			}
			top := e.Filter(g, func(r []int64) bool { return r[1] == max })
			return e.OrderBy(top, func(a, b []int64) bool { return a[0] < b[0] })
		},
	}
}

// --- Q16: parts/supplier relationship ---
func q16() *QuerySpec {
	// scan cols: 0 partkey, 1 suppkey
	return &QuerySpec{
		ID: 16, Name: "parts-supplier", Table: "partsupp",
		PSF: kernels.PSF{
			NumFields: PartsuppCols,
			Project:   []int{PSPartKey, PSSuppKey},
		},
		Body: func(e *Exec, scan *Relation) *Relation {
			attrs := map[int64][3]int64{}
			for _, r := range e.DS.Part.Rows {
				if r[PBrand] != 22 && !(r[PType] >= 60 && r[PType] < 75) {
					switch r[PSize] {
					case 49, 14, 23, 45, 19, 3, 36, 9:
						attrs[r[PPartKey]] = [3]int64{r[PBrand], r[PType], r[PSize]}
					}
				}
			}
			e.Work.JoinUnits += costJoinProbe * float64(len(scan.Rows))
			sel := e.Filter(scan, func(r []int64) bool { _, ok := attrs[r[0]]; return ok })
			// Distinct suppliers per (brand, type, size).
			g := e.GroupBy(sel,
				func(r []int64) []int64 {
					a := attrs[r[0]]
					return []int64{a[0], a[1], a[2], r[1]}
				},
				[]AggSpec{{Kind: AggCount}})
			cnt := e.GroupBy(g,
				func(r []int64) []int64 { return []int64{r[0], r[1], r[2]} },
				[]AggSpec{{Kind: AggCount}})
			return e.OrderBy(cnt, func(a, b []int64) bool { return a[3] > b[3] })
		},
	}
}

// --- Q17: small-quantity-order revenue ---
func q17() *QuerySpec {
	// scan cols: 0 partkey, 1 qty, 2 price
	return &QuerySpec{
		ID: 17, Name: "small-quantity", Table: "lineitem",
		PSF: kernels.PSF{
			NumFields: LineitemCols,
			Project:   []int{LPartKey, LQuantity, LExtendedPrice},
		},
		Body: func(e *Exec, scan *Relation) *Relation {
			target := map[int64]bool{}
			for _, r := range e.DS.Part.Rows {
				if r[PBrand] == 13 && r[PContainer] == 7 {
					target[r[PPartKey]] = true
				}
			}
			e.Work.JoinUnits += costJoinProbe * float64(len(scan.Rows))
			sel := e.Filter(scan, func(r []int64) bool { return target[r[0]] })
			avg := e.GroupBy(sel,
				func(r []int64) []int64 { return []int64{r[0]} },
				[]AggSpec{{Kind: AggAvg, Value: func(r []int64) int64 { return r[1] }}})
			avgQty := map[int64]int64{}
			for _, r := range avg.Rows {
				avgQty[r[0]] = r[1]
			}
			small := e.Filter(sel, func(r []int64) bool { return r[1]*5 < avgQty[r[0]] })
			var sum int64
			for _, r := range small.Rows {
				sum += r[2]
			}
			return FromRows("q17", [][]int64{{sum / 7}})
		},
	}
}

// --- Q18: large volume customer ---
func q18() *QuerySpec {
	// scan cols: 0 orderkey, 1 qty
	return &QuerySpec{
		ID: 18, Name: "large-volume-customer", Table: "lineitem",
		PSF: kernels.PSF{
			NumFields: LineitemCols,
			Project:   []int{LOrderKey, LQuantity},
		},
		Body: func(e *Exec, scan *Relation) *Relation {
			g := e.GroupBy(scan,
				func(r []int64) []int64 { return []int64{r[0]} },
				[]AggSpec{{Kind: AggSum, Value: func(r []int64) int64 { return r[1] }}})
			big := e.Filter(g, func(r []int64) bool { return r[1] > 250 })
			bo := e.HashJoin(big, e.DS.Orders, 0, OOrderKey)
			// 0 okey, 1 sumqty | 2.. orders cols
			out := e.Project(bo, 2+OCustKey, 0, 2+OOrderDate, 2+OTotalPrice, 1)
			return e.Limit(e.OrderBy(out, func(a, b []int64) bool {
				if a[3] != b[3] {
					return a[3] > b[3]
				}
				return a[2] < b[2]
			}), 100)
		},
	}
}

// --- Q19: discounted revenue (disjunctive predicates) ---
func q19() *QuerySpec {
	// scan cols: 0 partkey, 1 qty, 2 price, 3 disc, 4 shipmode
	return &QuerySpec{
		ID: 19, Name: "discounted-revenue", Table: "lineitem",
		PSF: kernels.PSF{
			NumFields: LineitemCols,
			Project:   []int{LPartKey, LQuantity, LExtendedPrice, LDiscount, LShipMode},
			Preds:     []kernels.PSFPred{pred(LShipMode, ModeAir, ModeAirReg)},
		},
		Body: func(e *Exec, scan *Relation) *Relation {
			brandOf := map[int64]int64{}
			sizeOf := map[int64]int64{}
			for _, r := range e.DS.Part.Rows {
				brandOf[r[PPartKey]] = r[PBrand]
				sizeOf[r[PPartKey]] = r[PSize]
			}
			e.Work.JoinUnits += costJoinProbe * float64(len(scan.Rows))
			sel := e.Filter(scan, func(r []int64) bool {
				b := brandOf[r[0]]
				s := sizeOf[r[0]]
				q := r[1]
				switch {
				case b == 12 && q >= 1 && q <= 11 && s <= 5:
					return true
				case b == 23 && q >= 10 && q <= 20 && s <= 10:
					return true
				case b == 34 && q >= 20 && q <= 30 && s <= 15:
					return true
				}
				return false
			})
			var rev int64
			for _, r := range sel.Rows {
				rev += revenue(r[2], r[3])
			}
			return FromRows("q19", [][]int64{{rev}})
		},
	}
}

// --- Q20: potential part promotion ---
func q20() *QuerySpec {
	// scan cols: 0 partkey, 1 suppkey, 2 availqty
	return &QuerySpec{
		ID: 20, Name: "potential-promotion", Table: "partsupp",
		PSF: kernels.PSF{
			NumFields: PartsuppCols,
			Project:   []int{PSPartKey, PSSuppKey, PSAvailQty},
		},
		Body: func(e *Exec, scan *Relation) *Relation {
			forest := map[int64]bool{}
			for _, r := range e.DS.Part.Rows {
				if r[PName] >= 2000 && r[PName] < 3000 { // 'forest%' bucket band
					forest[r[PPartKey]] = true
				}
			}
			// Half of 1994 shipments per (part, supplier).
			shipped := map[[2]int64]int64{}
			li := e.Filter(e.DS.Lineitem, func(r []int64) bool {
				return r[LShipDate] >= 19940101 && r[LShipDate] < 19950101 && forest[r[LPartKey]]
			})
			for _, r := range li.Rows {
				shipped[[2]int64{r[LPartKey], r[LSuppKey]}] += r[LQuantity]
			}
			sel := e.Filter(scan, func(r []int64) bool {
				if !forest[r[0]] {
					return false
				}
				return r[2]*2 > shipped[[2]int64{r[0], r[1]}]
			})
			supOK := map[int64]bool{}
			for _, r := range sel.Rows {
				supOK[r[1]] = true
			}
			out := e.Filter(e.DS.Supplier, func(r []int64) bool {
				return supOK[r[SSuppKey]] && r[SNationKey] == 3 // CANADA stand-in
			})
			return e.OrderBy(e.Project(out, SSuppKey, SName), func(a, b []int64) bool { return a[0] < b[0] })
		},
	}
}

// --- Q21: suppliers who kept orders waiting ---
func q21() *QuerySpec {
	// scan cols: 0 orderkey, 1 suppkey, 2 commitdate, 3 receiptdate
	return &QuerySpec{
		ID: 21, Name: "suppliers-kept-waiting", Table: "lineitem",
		PSF: kernels.PSF{
			NumFields: LineitemCols,
			Project:   []int{LOrderKey, LSuppKey, LCommitDate, LReceiptDate},
		},
		Body: func(e *Exec, scan *Relation) *Relation {
			const nation = 20 // SAUDI ARABIA stand-in
			supNation := map[int64]int64{}
			for _, r := range e.DS.Supplier.Rows {
				supNation[r[SSuppKey]] = r[SNationKey]
			}
			statusF := map[int64]bool{}
			for _, r := range e.DS.Orders.Rows {
				if r[OOrderStatus] == 0 {
					statusF[r[OOrderKey]] = true
				}
			}
			// Orders with >1 distinct supplier, where exactly the target
			// supplier was late.
			type ostat struct {
				sups     map[int64]bool
				lateSups map[int64]bool
			}
			orders := map[int64]*ostat{}
			for _, r := range scan.Rows {
				o := orders[r[0]]
				if o == nil {
					o = &ostat{sups: map[int64]bool{}, lateSups: map[int64]bool{}}
					orders[r[0]] = o
				}
				o.sups[r[1]] = true
				if r[3] > r[2] {
					o.lateSups[r[1]] = true
				}
			}
			e.Work.AggUnits += costAggRow * float64(len(scan.Rows))
			counts := map[int64]int64{}
			for okey, o := range orders {
				if !statusF[okey] || len(o.sups) < 2 || len(o.lateSups) != 1 {
					continue
				}
				for s := range o.lateSups {
					if supNation[s] == nation {
						counts[s]++
					}
				}
			}
			var rows [][]int64
			for s, c := range counts {
				rows = append(rows, []int64{s, c})
			}
			rel := FromRows("q21", rows)
			return e.Limit(e.OrderBy(rel, func(a, b []int64) bool {
				if a[1] != b[1] {
					return a[1] > b[1]
				}
				return a[0] < b[0]
			}), 100)
		},
	}
}

// --- Q22: global sales opportunity ---
func q22() *QuerySpec {
	// scan cols: 0 custkey, 1 phone, 2 acctbal
	return &QuerySpec{
		ID: 22, Name: "sales-opportunity", Table: "customer",
		PSF: kernels.PSF{
			NumFields: CustomerCols,
			Project:   []int{CCustKey, CPhone, CAcctBal},
			Preds:     []kernels.PSFPred{pred(CAcctBal, 600000, 1<<31-1)},
		},
		Body: func(e *Exec, scan *Relation) *Relation {
			// Average positive balance of the rich subset.
			var sum, n int64
			for _, r := range scan.Rows {
				sum += r[2]
				n++
			}
			avg := int64(0)
			if n > 0 {
				avg = sum / n
			}
			rich := e.Filter(scan, func(r []int64) bool { return r[2] > avg })
			noOrders := e.AntiJoin(e.DS.Orders, OCustKey, rich, 0)
			g := e.GroupBy(noOrders,
				func(r []int64) []int64 { return []int64{r[1] % 7} }, // country-code bucket
				[]AggSpec{
					{Kind: AggCount},
					{Kind: AggSum, Value: func(r []int64) int64 { return r[2] }},
				})
			return e.OrderBy(g, func(a, b []int64) bool { return a[0] < b[0] })
		},
	}
}
