"""Reference world state for the sync correctness gate.

Re-derives the head state root the sync driver must reach after a given
number of blocks, without the storage stack under test: the block
plans' effects are applied to plain dicts, and the root is computed by
building each trie from scratch over a throwaway in-memory node store.
No caches, snapshot layers, dirty-node buffers, write batches or
incremental trie updates are involved, so a fault in any of those shows
up as a root mismatch.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from repro.chain.account import EMPTY_CODE_HASH, Account
from repro.chain.genesis import GenesisConfig
from repro.gethdb.state import hash_address
from repro.trie.nibbles import Nibbles, bytes_to_nibbles
from repro.trie.trie import EMPTY_ROOT, NodeBackend, PathTrie
from repro.workload.generator import WorkloadConfig, WorkloadGenerator


class _DictBackend(NodeBackend):
    def __init__(self) -> None:
        self._nodes: dict[Nibbles, bytes] = {}

    def get(self, path: Nibbles) -> Optional[bytes]:
        return self._nodes.get(path)

    def peek(self, path: Nibbles) -> Optional[bytes]:
        return self._nodes.get(path)

    def put(self, path: Nibbles, blob: bytes) -> None:
        self._nodes[path] = blob

    def delete(self, path: Nibbles) -> None:
        self._nodes.pop(path, None)


def _trie_root(items: dict[bytes, bytes]) -> bytes:
    if not items:
        return EMPTY_ROOT
    trie = PathTrie(_DictBackend())
    for key in sorted(items):
        trie.update(bytes_to_nibbles(key), items[key])
    return trie.commit()


def reference_state_root(
    workload: WorkloadConfig,
    num_blocks: int,
    genesis: Optional[GenesisConfig] = None,
) -> bytes:
    """State root after genesis plus ``num_blocks`` blocks of ``workload``.

    Mirrors the semantics of ``FullSyncDriver`` genesis and transaction
    application: transfers move value and bump the sender nonce, calls
    write or clear storage slots, creations deploy code with fresh
    storage, and self-destructs drop the account with all its storage.
    """
    genesis = genesis if genesis is not None else GenesisConfig()
    generator = WorkloadGenerator(workload)
    # address -> [nonce, balance, code_hash]; address -> {slot_hash: value}
    accounts: dict[bytes, list] = {}
    storage: dict[bytes, dict[bytes, bytes]] = {}
    for address in generator.eoa_addresses:
        accounts[address] = [0, genesis.initial_balance, EMPTY_CODE_HASH]
    for contract in generator.contract_addresses:
        code = generator.initial_code_for(contract)
        accounts[contract] = [1, 0, hashlib.sha3_256(code).digest()]
        storage[contract] = dict(generator.initial_slots_for(contract))

    def write_slots(slot_writes) -> None:
        for address, slot, value in slot_writes:
            slots = storage.setdefault(address, {})
            if value:
                slots[slot] = value
            else:
                slots.pop(slot, None)

    for number in range(1, num_blocks + 1):
        for plan in generator.make_block_plan(number).tx_plans:
            tx = plan.tx
            sender = accounts.setdefault(plan.sender, [0, 0, EMPTY_CODE_HASH])
            sender[0] += 1
            sender[1] = max(0, sender[1] - tx.value - tx.gas_limit)
            if plan.kind == "transfer":
                accounts.setdefault(plan.recipient, [0, 0, EMPTY_CODE_HASH])[1] += tx.value
            elif plan.kind == "call":
                if plan.recipient in accounts:
                    write_slots(plan.slot_writes)
            elif plan.kind == "create":
                code_hash = hashlib.sha3_256(plan.deployed_code).digest()
                accounts[plan.recipient] = [1, 0, code_hash]
                write_slots(plan.slot_writes)
            elif plan.kind == "destruct":
                accounts.pop(plan.destruct_target, None)
                storage.pop(plan.destruct_target, None)
            else:
                raise ValueError(f"unknown tx kind {plan.kind!r}")

    leaves = {}
    for address, (nonce, balance, code_hash) in accounts.items():
        account = Account(
            nonce=nonce,
            balance=balance,
            storage_root=_trie_root(storage.get(address, {})),
            code_hash=code_hash,
        )
        leaves[hash_address(address)] = account.encode()
    return _trie_root(leaves)
