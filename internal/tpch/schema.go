// Package tpch provides the data-analytics substrate for the end-to-end
// evaluation (Figs. 14-15): a deterministic, scaled-down TPC-H dataset
// generator, a small relational engine (scan/filter/project/hash-join/
// group-by/sort) that executes all 22 TPC-H queries, and per-query offload
// descriptors mapping each query's scan to a Parse/Select/Filter pipeline
// pushed into the computational SSD.
//
// Substitution note (recorded in DESIGN.md): the paper uses dbgen SF-10
// with SparkSQL. This generator produces the same eight tables with the
// same key relationships at laptop scale, and encodes every column as a
// non-negative integer — dates as yyyymmdd, monetary values in cents,
// percentages in basis points, and low-cardinality strings as dictionary
// codes — so the in-SSD PSF kernel stays a numeric parser. Relative query
// behaviour (selectivities, join fan-outs, aggregate shapes) is preserved;
// absolute row counts scale with SF.
package tpch

import "fmt"

// Column indices of the lineitem table (16 columns, as in TPC-H).
const (
	LOrderKey = iota
	LPartKey
	LSuppKey
	LLineNumber
	LQuantity      // units
	LExtendedPrice // cents
	LDiscount      // basis points (0-1000 = 0-10%)
	LTax           // basis points
	LReturnFlag    // code: 0=A 1=N 2=R
	LLineStatus    // code: 0=F 1=O
	LShipDate      // yyyymmdd
	LCommitDate    // yyyymmdd
	LReceiptDate   // yyyymmdd
	LShipInstruct  // code 0-3
	LShipMode      // code 0-6
	LComment       // hash bucket 0-9999
	LineitemCols
)

// Column indices of the orders table.
const (
	OOrderKey = iota
	OCustKey
	OOrderStatus // code 0=F 1=O 2=P
	OTotalPrice  // cents
	OOrderDate   // yyyymmdd
	OOrderPriority
	OClerk
	OShipPriority
	OComment
	OrdersCols
)

// Column indices of the customer table.
const (
	CCustKey = iota
	CName
	CAddress
	CNationKey
	CPhone
	CAcctBal // cents (may encode negatives as offset; see genCustomer)
	CMktSegment
	CComment
	CustomerCols
)

// Column indices of the part table.
const (
	PPartKey = iota
	PName    // hash bucket standing in for p_name
	PMfgr
	PBrand
	PType // code 0-149 (the 150 TPC-H type strings)
	PSize
	PContainer
	PRetailPrice // cents
	PComment
	PartCols
)

// Column indices of the supplier table.
const (
	SSuppKey = iota
	SName
	SAddress
	SNationKey
	SPhone
	SAcctBal
	SComment
	SupplierCols
)

// Column indices of the partsupp table.
const (
	PSPartKey = iota
	PSSuppKey
	PSAvailQty
	PSSupplyCost // cents
	PSComment
	PartsuppCols
)

// Column indices of nation / region.
const (
	NNationKey = iota
	NName
	NRegionKey
	NComment
	NationCols
)

const (
	RRegionKey = iota
	RName
	RComment
	RegionCols
)

// Mktsegment codes (5 segments).
const (
	SegAutomobile = iota
	SegBuilding
	SegFurniture
	SegHousehold
	SegMachinery
	numSegments
)

// Shipmode codes (7 modes).
const (
	ModeAir = iota
	ModeAirReg
	ModeFob
	ModeMail
	ModeRail
	ModeShip
	ModeTruck
	numShipModes
)

// Return flags / line status.
const (
	FlagA = 0
	FlagN = 1
	FlagR = 2

	StatusF = 0
	StatusO = 1
)

// Relation is a simple row-major table.
type Relation struct {
	Name string
	// ColNames are for debugging/printing.
	ColNames []string
	Rows     [][]int64
}

// NumRows returns the row count.
func (r *Relation) NumRows() int { return len(r.Rows) }

// NumCols returns the column count.
func (r *Relation) NumCols() int {
	if len(r.Rows) > 0 {
		return len(r.Rows[0])
	}
	return len(r.ColNames)
}

// String summarizes the relation.
func (r *Relation) String() string {
	return fmt.Sprintf("%s[%d rows × %d cols]", r.Name, r.NumRows(), r.NumCols())
}

// Dataset is a complete TPC-H database instance.
type Dataset struct {
	SF float64

	Region   *Relation
	Nation   *Relation
	Supplier *Relation
	Customer *Relation
	Part     *Relation
	Partsupp *Relation
	Orders   *Relation
	Lineitem *Relation
}

// Tables returns all tables keyed by name.
func (d *Dataset) Tables() map[string]*Relation {
	return map[string]*Relation{
		"region":   d.Region,
		"nation":   d.Nation,
		"supplier": d.Supplier,
		"customer": d.Customer,
		"part":     d.Part,
		"partsupp": d.Partsupp,
		"orders":   d.Orders,
		"lineitem": d.Lineitem,
	}
}

// dateToInt converts (y, m, d) to yyyymmdd.
func dateToInt(y, m, d int) int64 { return int64(y*10000 + m*100 + d) }

// addDays adds n days to a yyyymmdd date using a simplified 28-day-February
// calendar (leap days don't matter for query shape; ranges stay ordered).
func addDays(date int64, n int) int64 {
	y := int(date / 10000)
	m := int(date / 100 % 100)
	d := int(date % 100)
	d += n
	for {
		dm := daysIn(m)
		if d > dm {
			d -= dm
			m++
			if m > 12 {
				m = 1
				y++
			}
			continue
		}
		if d < 1 {
			m--
			if m < 1 {
				m = 12
				y--
			}
			d += daysIn(m)
			continue
		}
		break
	}
	return dateToInt(y, m, d)
}

func daysIn(m int) int {
	switch m {
	case 1, 3, 5, 7, 8, 10, 12:
		return 31
	case 2:
		return 28
	default:
		return 30
	}
}
