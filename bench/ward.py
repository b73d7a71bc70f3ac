"""The Ward community and its seeded closed-loop caller.

Both `live_ward` (about 1k agents) and `audit_replay` (about 20 agents, long
history) drive this community. The caller keeps its own view of who is
bound and which tokens it created, so every event it sends is well formed;
blocked verdicts and rejected speech acts are ordinary outcomes.
"""

from __future__ import annotations

import random
from collections import Counter

from covenant import runtime, spec_lang
from covenant.spec_lang.ast import SpeechActKind
from covenant.verifier import PropertySpec

WARD_SOURCE = """\
community Ward {
  role Officer: human [0..*];
  role Nurse: human [0..*];
  role Bot: llm_agent [0..*];
  role Scribe: agentic_ai [0..*];
  group Staff = {Officer, Nurse};
  group Machines = {Bot, Scribe};

  object CaseFile;

  policy burden(screen_case, Officer);
  policy permit(read_case, Machines) requires discharged burden(screen_case, Officer);
  policy embargo(close_case, Machines) unless permit(approve_close, Officer);
  policy permit(update_chart, Staff);

  contract WardRules {
    allow Officer: declare_burden, grant, revoke, discharge, transfer;
    allow Nurse: declare_burden, discharge, transfer;
    escalate when policy_violation to Officer;
  }
}
"""

OWNER = "WardHospital"
VENDOR = "CareVendor"

PROPERTIES = (
    PropertySpec.safety("read_case", "screen_case"),
    PropertySpec.authority("sign_off", "Officer"),
    PropertySpec.prohibition("close_case", "Machines"),
    PropertySpec.accountability(),
)

KINDS = {"Officer": "human", "Nurse": "human", "Bot": "llm_agent", "Scribe": "agentic_ai"}
PRINCIPALS = {"Officer": OWNER, "Nurse": OWNER, "Bot": VENDOR, "Scribe": VENDOR}
# Share of the population per role, in binding order.
ROLE_MIX = (("Officer", 3), ("Nurse", 7), ("Bot", 6), ("Scribe", 4))
CHURN_ROLES = ("Nurse", "Bot", "Scribe")

# What each role tries to do, and the actions an officer grants to it.
ACTIONS = {
    "Officer": ("close_case", "sign_off", "update_chart"),
    "Nurse": ("update_chart", "update_chart", "close_case"),
    "Bot": ("read_case", "read_case", "close_case"),
    "Scribe": ("close_case", "read_case"),
}
GRANTABLE = {
    "Officer": ("approve_close", "close_case"),
    "Nurse": ("update_chart", "close_case"),
    "Bot": ("read_case", "close_case"),
    "Scribe": ("close_case", "read_case"),
}
ACTOR_WEIGHTS = (("Bot", 35), ("Scribe", 25), ("Nurse", 25), ("Officer", 15))
WRITE_WEIGHTS = (
    ("declare", 30),
    ("discharge", 25),
    ("grant", 15),
    ("revoke", 10),
    ("transfer", 10),
    ("churn", 10),
)


def _expand(weights) -> tuple[str, ...]:
    return tuple(name for name, weight in weights for _ in range(weight))


ACTOR_TABLE = _expand(ACTOR_WEIGHTS)
WRITE_TABLE = _expand(WRITE_WEIGHTS)
ROLE_TABLE = _expand(ROLE_MIX)


def template():
    return spec_lang.parse_spec(WARD_SOURCE)


class WardCaller:
    """One caller that waits for each result before it sends the next event.

    `plan()` returns the next event as (category, callable, args, observe);
    the driver times only the callable, then hands its result to observe.
    """

    def __init__(self, instance, seed: int, cases: int, action_share: float):
        self.instance = instance
        self.rng = random.Random(seed)
        self.cases = cases
        self.action_share = action_share
        self.bound: dict[str, list[str]] = {role: [] for role in KINDS}
        self.burdens: list[list] = []  # [token id, holder name]
        self.grants: list[tuple[int, str]] = []  # (token id, issuer)
        self.next_agent = 0
        self.population = 0  # churn-role agents bound at set-up
        self.outcomes: Counter = Counter()

    # ------------------------------------------------------------------
    # helpers over the caller's own view

    def _case(self) -> str:
        return f"case_{self.rng.randrange(self.cases)}"

    def _pick(self, role: str) -> str:
        return self.rng.choice(self.bound[role])

    def _take(self, items: list):
        index = self.rng.randrange(len(items))
        items[index], items[-1] = items[-1], items[index]
        return items.pop()

    def _observe_act(self, category: str, on_accept=None):
        def observe(result) -> None:
            self.outcomes[f"{category}.{'accepted' if result.accepted else 'rejected'}"] += 1
            if result.accepted and on_accept is not None:
                on_accept(result)

        return observe

    # ------------------------------------------------------------------
    # event constructors

    def bind_new(self, role: str | None = None):
        role = role or self.rng.choice(ROLE_TABLE)
        agent = f"{role.lower()}_{self.next_agent}"
        self.next_agent += 1
        self.bound[role].append(agent)

        def observe(_binding) -> None:
            self.outcomes["bind"] += 1

        return ("churn", self.instance.bind_agent, (role, agent, KINDS[role], PRINCIPALS[role]), observe)

    def unbind(self):
        candidates = [r for r in CHURN_ROLES if len(self.bound[r]) > 2]
        role = self.rng.choice(candidates)
        agent = self._take(self.bound[role])

        def observe(_none) -> None:
            self.outcomes["unbind"] += 1

        return ("churn", self.instance.unbind_agent, (role, agent), observe)

    def grant(self):
        role = self.rng.choice(("Officer", "Nurse", "Bot", "Bot", "Scribe"))
        issuer = self._pick("Officer")
        payload = {
            "action": self.rng.choice(GRANTABLE[role]),
            "to": self._pick(role),
            "subject": self._case(),
        }
        if payload["action"] == "read_case" and self.rng.random() < 0.5:
            payload["requires_action"] = "screen_case"
        return self._speech(
            SpeechActKind.GRANT,
            issuer,
            payload,
            "grant",
            lambda result: self.grants.append((result.token_id, issuer)),
        )

    def _speech(self, kind, sender, payload, category, on_accept=None):
        act = runtime.SpeechAct(kind, sender, payload)
        return ("speech_act", self.instance.apply_speech_act, (act,), self._observe_act(category, on_accept))

    def _declare(self):
        sender = self._pick(self.rng.choice(("Officer", "Officer", "Nurse")))
        if self.rng.random() < 0.7:
            holder = "Officer"
        else:
            holder = self._pick("Nurse")
        payload = {
            "action": "screen_case" if self.rng.random() < 0.6 else "sign_off",
            "holder": holder,
            "subject": self._case(),
            "deadline": self.instance.head_seq + self.rng.randint(100, 3000),
        }
        return self._speech(
            SpeechActKind.DECLARE_BURDEN,
            sender,
            payload,
            "declare",
            lambda result: self.burdens.append([result.token_id, holder]),
        )

    def _holder_agent(self, holder: str) -> str:
        """An agent able to act for a burden's holder, if the caller knows one."""
        if holder == "Officer":
            return self._pick("Officer")
        if holder in self.bound["Nurse"] or holder in self.bound["Officer"]:
            return holder
        return self._pick("Officer")

    def _discharge(self):
        if not self.burdens:
            return self._declare()
        token, holder = self._take(self.burdens)
        sender = self._holder_agent(holder)
        return self._speech(SpeechActKind.DISCHARGE, sender, {"token": token}, "discharge")

    def _transfer(self):
        if not self.burdens:
            return self._declare()
        entry = self.rng.choice(self.burdens)
        token, holder = entry
        sender = self._holder_agent(holder)
        to = self._pick(self.rng.choice(("Officer", "Nurse")))

        def moved(_result) -> None:
            entry[1] = to

        return self._speech(SpeechActKind.TRANSFER, sender, {"token": token, "to": to}, "transfer", moved)

    def _revoke(self):
        if not self.grants:
            return self.grant()
        token, issuer = self._take(self.grants)
        return self._speech(SpeechActKind.REVOKE, issuer, {"token": token}, "revoke")

    def _churn(self):
        # unbind one agent or bind a new one, keeping the population near its size
        population = sum(len(self.bound[role]) for role in CHURN_ROLES)
        leave = self.rng.random() < 0.5 if population == self.population else population > self.population
        if leave and any(len(self.bound[role]) > 2 for role in CHURN_ROLES):
            return self.unbind()
        return self.bind_new(self.rng.choice(CHURN_ROLES))

    def _action(self):
        role = self.rng.choice(ACTOR_TABLE)
        actor = self._pick(role)
        action = self.rng.choice(ACTIONS[role])

        def observe(result) -> None:
            self.outcomes[f"verdict.{result.verdict.outcome}"] += 1

        return ("action", self.instance.submit_action, (actor, action, self._case()), observe)

    def plan(self):
        if self.rng.random() < self.action_share:
            return self._action()
        kind = self.rng.choice(WRITE_TABLE)
        return {
            "declare": self._declare,
            "discharge": self._discharge,
            "grant": self.grant,
            "revoke": self._revoke,
            "transfer": self._transfer,
            "churn": self._churn,
        }[kind]()


def populate(seed: int, agents: int, grants: int, cases: int, action_share: float):
    """Instantiate the Ward, bind `agents` agents and grant `grants` permits."""
    tpl = template()
    instance = runtime.instantiate_community(tpl, owner=runtime.Principal(OWNER, OWNER))
    instance.register_principal(VENDOR)
    caller = WardCaller(instance, seed, cases, action_share)
    for i in range(agents):
        _category, call, args, observe = caller.bind_new(ROLE_TABLE[i % len(ROLE_TABLE)])
        observe(call(*args))
    caller.population = sum(len(caller.bound[role]) for role in CHURN_ROLES)
    for _ in range(grants):
        _category, call, args, observe = caller.grant()
        observe(call(*args))
    return tpl, instance, caller


def token_states(instance) -> dict[str, int]:
    return dict(sorted(Counter(t.state.value for t in instance.tokens).items()))
