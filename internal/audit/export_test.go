package audit

// PlanMemoLen reports how many plans a's memo holds.
func PlanMemoLen(a *Auditor) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.plans)
}
