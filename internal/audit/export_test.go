package audit

// PlanMemoLen reports how many plans a's memo holds.
func PlanMemoLen(a *Auditor) int {
	return a.plans.Len()
}
