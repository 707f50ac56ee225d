package main

import (
	"fmt"
	"math"
	"math/rand"

	"alwaysencrypted/internal/driver"
	"alwaysencrypted/internal/sqltypes"
	"alwaysencrypted/internal/tpcc"
)

// checker runs the correctness gate through the driver, as a client would.
type checker struct {
	conn *driver.Conn
	err  error
}

func newChecker(w *tpcc.World) *checker { return &checker{conn: w.ConnectPipe(true, nil)} }

func (c *checker) close() { c.conn.Close() }

// value runs a single-row, single-column query and returns the cell; once a
// query fails, later calls return NULL and c.err keeps the first error.
func (c *checker) value(query string, args map[string]sqltypes.Value) sqltypes.Value {
	if c.err != nil {
		return sqltypes.Null()
	}
	rows, err := c.conn.Exec(query, args)
	if err != nil {
		c.err = fmt.Errorf("%s: %w", query, err)
		return sqltypes.Null()
	}
	if len(rows.Values) != 1 || len(rows.Values[0]) != 1 {
		c.err = fmt.Errorf("%s: want one cell, got %d rows", query, len(rows.Values))
		return sqltypes.Null()
	}
	return rows.Values[0][0]
}

func num(v sqltypes.Value) float64 {
	if v.Kind == sqltypes.KindFloat {
		return v.F
	}
	return float64(v.I)
}

// ints builds query parameters from alternating names and integer values.
func ints(kv ...any) map[string]sqltypes.Value {
	args := make(map[string]sqltypes.Value, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		args[kv[i].(string)] = sqltypes.Int(int64(kv[i+1].(int)))
	}
	return args
}

// countOrders returns the number of ORDER rows.
func (c *checker) countOrders() (int64, error) {
	n := c.value("SELECT COUNT(*) FROM orders", nil)
	return n.I, c.err
}

// gate checks TPC-C consistency conditions 1, 2 and 4 on every warehouse and
// district, that exactly committedNewOrders orders were inserted since
// ordersBefore, and, when S_QUANTITY is encrypted, that the enclave's
// Stock-Level answers match a client-side recount on a seeded sample.
func gate(w *tpcc.World, ordersBefore int64, committedNewOrders int, seed int64) (summary string, err error) {
	c := newChecker(w)
	defer c.close()
	s := w.Scale
	for wid := 1; wid <= s.Warehouses; wid++ {
		// Condition 1: W_YTD = Σ D_YTD.
		wYTD := num(c.value("SELECT w_ytd FROM warehouse WHERE w_id = @w", ints("w", wid)))
		dYTD := num(c.value("SELECT SUM(d_ytd) FROM district WHERE d_w_id = @w", ints("w", wid)))
		if c.err == nil && math.Abs(wYTD-dYTD) > 1e-9*math.Abs(wYTD)+0.01 {
			return "", fmt.Errorf("condition 1: warehouse %d: W_YTD %.4f ≠ ΣD_YTD %.4f", wid, wYTD, dYTD)
		}
		for did := 1; did <= s.DistrictsPerWarehouse; did++ {
			// Condition 2: D_NEXT_O_ID − 1 = max(O_ID) = max(NO_O_ID).
			next := c.value("SELECT d_next_o_id FROM district WHERE d_w_id = @w AND d_id = @d", ints("w", wid, "d", did)).I
			maxO := c.value("SELECT MAX(o_id) FROM orders WHERE o_w_id = @w AND o_d_id = @d", ints("w", wid, "d", did)).I
			maxNO := c.value("SELECT MAX(no_o_id) FROM neworder WHERE no_w_id = @w AND no_d_id = @d", ints("w", wid, "d", did))
			if c.err == nil && (maxO != next-1 || (!maxNO.IsNull() && maxNO.I != next-1)) {
				return "", fmt.Errorf("condition 2: district %d/%d: D_NEXT_O_ID−1 = %d, max(O_ID) = %d, max(NO_O_ID) = %v",
					wid, did, next-1, maxO, maxNO)
			}
			// Condition 4: Σ O_OL_CNT = count(ORDER_LINE).
			olCnt := num(c.value("SELECT SUM(o_ol_cnt) FROM orders WHERE o_w_id = @w AND o_d_id = @d", ints("w", wid, "d", did)))
			lines := c.value("SELECT COUNT(*) FROM orderline WHERE ol_w_id = @w AND ol_d_id = @d", ints("w", wid, "d", did)).I
			if c.err == nil && int64(olCnt) != lines {
				return "", fmt.Errorf("condition 4: district %d/%d: ΣO_OL_CNT = %d, ORDER_LINE rows = %d",
					wid, did, int64(olCnt), lines)
			}
		}
	}
	after, err := c.countOrders()
	if err != nil {
		return "", err
	}
	if after-ordersBefore != int64(committedNewOrders) {
		return "", fmt.Errorf("orders inserted %d ≠ committed NewOrders %d", after-ordersBefore, committedNewOrders)
	}
	summary = fmt.Sprintf("conditions 1, 2, 4 hold on %d districts; %d orders inserted = committed NewOrders",
		s.Warehouses*s.DistrictsPerWarehouse, after-ordersBefore)
	if w.Mode == tpcc.ModeRNDStock {
		n, err := c.stockLevelSample(s, seed)
		if err != nil {
			return "", err
		}
		summary += fmt.Sprintf("; %d enclave Stock-Level counts match client-side recounts", n)
	}
	return summary, c.err
}

// stockLevelSamples is how many Stock-Level answers the gate recomputes.
const stockLevelSamples = 8

// stockLevelSample runs the Stock-Level count, whose S_QUANTITY filter the
// enclave evaluates over randomized ciphertext, and recomputes it from
// S_QUANTITY values the driver decrypted. Thresholds span the whole quantity
// range so counts are rarely zero.
func (c *checker) stockLevelSample(s tpcc.Scale, seed int64) (int, error) {
	rng := rand.New(rand.NewSource(seed*64 + 63))
	for k := 0; k < stockLevelSamples; k++ {
		wid := 1 + k%s.Warehouses
		did := 1 + rng.Intn(s.DistrictsPerWarehouse)
		threshold := 10 + rng.Intn(92)
		next := c.value("SELECT d_next_o_id FROM district WHERE d_w_id = @w AND d_id = @d", ints("w", wid, "d", did)).I
		lo := next - 20
		if lo < 1 {
			lo = 1
		}
		enclaveCount := c.value("SELECT COUNT(DISTINCT ol_i_id) FROM orderline JOIN stock ON ol_i_id = s_i_id "+
			"WHERE ol_w_id = @w AND ol_d_id = @d AND ol_o_id >= @lo AND s_w_id = @w2 AND s_quantity < @t",
			ints("w", wid, "d", did, "lo", int(lo), "w2", wid, "t", threshold)).I
		if c.err != nil {
			return k, c.err
		}
		rows, err := c.conn.Exec("SELECT ol_i_id FROM orderline WHERE ol_w_id = @w AND ol_d_id = @d AND ol_o_id >= @lo",
			ints("w", wid, "d", did, "lo", int(lo)))
		if err != nil {
			return k, err
		}
		items := map[int64]bool{}
		for _, r := range rows.Values {
			items[r[0].I] = true
		}
		var clientCount int64
		for item := range items {
			q := c.value("SELECT s_quantity FROM stock WHERE s_w_id = @w AND s_i_id = @i", ints("w", wid, "i", int(item)))
			if q.I < int64(threshold) {
				clientCount++
			}
		}
		if c.err != nil {
			return k, c.err
		}
		if clientCount != enclaveCount {
			return k, fmt.Errorf("stock-level %d/%d below %d: enclave counted %d, client recount %d",
				wid, did, threshold, enclaveCount, clientCount)
		}
	}
	return stockLevelSamples, nil
}
