"""Watch the exchange phase instead of the optimization result.

Every epoch_length steps each agent picks a random peer, receives that
peer's m worst members (m is the peer's trust in the agent), breeds
offspring that adopt K genes of them (K is the agent's trust in the peer)
and either merges those (when the shared members' mean fitness passes the
acceptance threshold) or throws the share away.  The outcome, the branch,
moves trust: +1 improved, 0 accepted, -1 rejected.  Passing
interaction_log= to run_repetitions records one (step, ExchangeRecord) pair
per epoch: the per-agent arrays of that epoch's exchanges.
"""

from collections import Counter

from trustopt import AgentTemplate, CredibilityConfig, TboConfig, run_repetitions

cfg = TboConfig(
    agent_count=4,
    dimension=5,
    objective="rastrigin",
    epoch_length=10,
    diversity_factor=1.3,
    max_steps=200,
    seed=99,
    credibility=CredibilityConfig(kind="trust", start_value=2),
    per_agent=AgentTemplate(population_size=5, offspring_size=15,
                            base_crossover_rate=0.005,
                            base_mutation_rate=0.0005),
)

log = []
run_repetitions(cfg, interaction_log=log)
VERDICTS = {1: "improved", 0: "accepted", -1: "rejected"}

print(f"{len(log) * cfg.agent_count} interactions over {cfg.max_steps} steps "
      f"({len(log)} epochs x {cfg.agent_count} agents)")
print()


def show(t, record):
    for i, (j, m, k, branch, shared, threshold) in enumerate(zip(
            record.sender.tolist(), record.m.tolist(), record.k.tolist(),
            record.branch.tolist(), record.mean_shared.tolist(), record.threshold.tolist())):
        print(f"  t={t}: agent {i} <- agent {j}  m={m} K={k}  {VERDICTS[branch]:>9}  "
              f"shared mean {shared:9.3f} vs threshold {threshold:9.3f}")
        if branch:
            print(f"        trust[{i},{j}] {branch:+d}")


# m and K start at start_value and drift with the outcomes
print("the first epoch in detail:")
show(*log[0])
print("the last epoch in detail:")
show(*log[-1])

tally = Counter(VERDICTS[b] for _, record in log for b in record.branch.tolist())
print()
print("over the whole run:")
for verdict in ("improved", "accepted", "rejected"):
    print(f"  {verdict:>9}: {tally.get(verdict, 0)}")

# early epochs reject a lot while populations are far apart; the mean gap
# between shared and threshold shrinks as the societies converge
first = [gap for _, r in log[:2] for gap in (r.mean_shared - r.threshold).tolist()]
last = [gap for _, r in log[-2:] for gap in (r.mean_shared - r.threshold).tolist()]
print()
print(f"mean (shared - threshold), first two epochs: {sum(first) / len(first):9.3f}")
print(f"mean (shared - threshold), last two epochs:  {sum(last) / len(last):9.3f}")
