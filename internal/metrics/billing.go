package metrics

// Billing implements the simple billing model of the paper's simulation
// study (§5.5.1):
//
//   - The provider pays the raw VM rate for every provisioned server-hour.
//   - Users pay UserMultiplier (1.15x) times the provider rate, proportional
//     to the fraction of the server's resources they actively use.
//   - Standby distributed-kernel replicas are charged StandbyFraction
//     (12.5 %) of the base rate: a $10/hr 8-GPU VM yields a $1.44/hr
//     standby charge (10 x 1.15 x 0.125).
//   - A replica actively training on g of the server's G GPUs is charged
//     rate x 1.15 x g/G ($5.75/hr for 4 of 8 GPUs on a $10/hr VM).
type Billing struct {
	// ServerHourlyUSD is the provider's cost for one 8-GPU server-hour.
	ServerHourlyUSD float64
	// GPUsPerServer is G in the per-GPU proration.
	GPUsPerServer int
	// UserMultiplier is the markup users pay over the provider rate.
	UserMultiplier float64
	// StandbyFraction is the fraction of the base rate billed for each
	// standby replica.
	StandbyFraction float64
}

// DefaultBilling matches the constants in §5.5.1 with the p3.16xlarge
// long-term-reservation rate implied by §2.4 (about $18.3M/month for 3,000
// 8-GPU servers, i.e. roughly $8.36 per server-hour).
func DefaultBilling() Billing {
	return Billing{
		ServerHourlyUSD: 8.36,
		GPUsPerServer:   8,
		UserMultiplier:  1.15,
		StandbyFraction: 0.125,
	}
}

// ProviderCost returns the provider's cost for the given server-hours.
func (b Billing) ProviderCost(serverHours float64) float64 {
	return float64(b.ServerHourlyUSD * serverHours)
}

// ActiveRevenue returns the user charge for gpuHours of active training,
// prorated per GPU.
func (b Billing) ActiveRevenue(gpuHours float64) float64 {
	perGPUHour := b.ServerHourlyUSD * b.UserMultiplier / float64(b.GPUsPerServer)
	return float64(perGPUHour * gpuHours)
}

// StandbyRevenue returns the charge for standby replica-hours.
func (b Billing) StandbyRevenue(replicaHours float64) float64 {
	return float64(b.ServerHourlyUSD * b.UserMultiplier * b.StandbyFraction * replicaHours)
}

// ReservationRevenue returns the user charge under the Reservation baseline,
// which bills the 1.15x rate for reserved GPU-hours whether or not they are
// used.
func (b Billing) ReservationRevenue(reservedGPUHours float64) float64 {
	perGPUHour := b.ServerHourlyUSD * b.UserMultiplier / float64(b.GPUsPerServer)
	return float64(perGPUHour * reservedGPUHours)
}

// ProfitMargin returns (revenue-cost)/revenue as a percentage, or 0 when
// revenue is 0.
func ProfitMargin(revenueUSD, costUSD float64) float64 {
	if revenueUSD == 0 {
		return 0
	}
	return (revenueUSD - costUSD) / revenueUSD * 100
}
