package econ

import "errors"

// The late-2018 Bitcoin reward schedule and miner cost structure: a 12.5 BTC
// subsidy plus ~0.3 BTC of fees per block, 144 blocks a day, wholesale
// electricity, and a cost share of revenue spent on electricity at
// equilibrium (the rest covers hardware and margin; typically 0.6–0.9).
const (
	blockRewardCoins  = 12.5
	feesPerBlockCoins = 0.3
	blocksPerDay      = 144
	elecUSDPerKWh     = 0.05
	costShare         = 0.75
)

// EnergyParams models proof-of-work energy at economic equilibrium: miners
// add power until the marginal electricity cost approaches marginal revenue,
// so network consumption is pinned by coin price and reward schedule rather
// than by transaction load — the mechanism behind "Bitcoin consumes as much
// as Austria".
type EnergyParams struct {
	// CoinPriceUSD is the exchange rate.
	CoinPriceUSD float64
}

// Bitcoin2018Energy returns parameters matching late-2018 Bitcoin: ~$7.5k
// per coin.
func Bitcoin2018Energy() EnergyParams {
	return EnergyParams{CoinPriceUSD: 7500}
}

// DailyRevenueUSD returns the network's total daily mining revenue.
func (p EnergyParams) DailyRevenueUSD() float64 {
	return p.CoinPriceUSD * (blockRewardCoins + feesPerBlockCoins) * blocksPerDay
}

// NetworkPowerGW returns the equilibrium power draw in gigawatts.
func (p EnergyParams) NetworkPowerGW() float64 {
	dailyKWh := p.DailyRevenueUSD() * costShare / elecUSDPerKWh
	return dailyKWh / 24 / 1e6
}

// AnnualTWh returns the equilibrium annual energy consumption in
// terawatt-hours.
func (p EnergyParams) AnnualTWh() float64 {
	return p.NetworkPowerGW() * 24 * 365 / 1000
}

// PerTxKWh returns the energy cost of a single transaction at the given
// throughput (transactions per second).
func (p EnergyParams) PerTxKWh(tps float64) (float64, error) {
	if tps <= 0 {
		return 0, errors.New("econ: tps must be positive")
	}
	txPerDay := tps * 86_400
	dailyKWh := p.NetworkPowerGW() * 1e6 * 24
	return dailyKWh / txPerDay, nil
}
