"""Seeded event-file generator for the ``ingest_1m`` workload.

Writes a 4-column event file (``patient_id,time,event,event_value``) and a
label file (``patient_id,Y,R``) in the formats ``sawtopics ingest`` reads.
There are ``n_numeric`` numeric event types (binned by ingest) and
``n_categorical`` categorical ones with ``n_values`` values each. A latent
per-patient risk tilts the values of ``n_tilted`` event types and sets the
survival times, so a risk model fitted on the ingested words has signal to
find.
"""

from __future__ import annotations

import numpy as np


def generate_events(events_path, labels_path, *, n_rows: int, n_patients: int,
                    n_numeric: int, n_categorical: int, n_values: int,
                    n_tilted: int, censor_fraction: float, seed: int) -> list[str]:
    """Write both files; return the patient ids."""
    rng = np.random.default_rng(seed)
    n_types = n_numeric + n_categorical
    risk = rng.standard_normal(n_patients)

    patient = np.sort(rng.integers(0, n_patients, size=n_rows))
    # every patient gets at least two rows, so no patient is dropped by ingest
    patient[: 2 * n_patients] = np.repeat(np.arange(n_patients), 2)
    patient.sort()
    etype = rng.integers(0, n_types, size=n_rows)
    time = np.round(rng.uniform(0.0, 1000.0, size=n_rows), 2)

    tilted = np.zeros(n_types, dtype=bool)
    tilted[rng.choice(n_types, size=n_tilted, replace=False)] = True
    sign = rng.choice([-1.0, 1.0], size=n_types)
    shift = np.where(tilted[etype], sign[etype] * risk[patient], 0.0)

    is_num = etype < n_numeric
    num_value = np.round(rng.standard_normal(n_rows) + shift, 3)
    # categorical: value index drawn around a tilted centre, clipped to n_values
    cat_index = np.clip(np.round(rng.normal(2.0 + 1.2 * shift, 1.0)), 0, n_values - 1).astype(int)

    names = [f"num{j:02d}" if j < n_numeric else f"cat{j - n_numeric:02d}" for j in range(n_types)]
    letters = [chr(ord("a") + v) for v in range(n_values)]
    pids = [f"p{i:05d}" for i in range(n_patients)]
    lines = ["patient_id,time,event,event_value"]
    lines += [
        f"{pids[p]},{t!r},{names[e]},{v!r}" if num else f"{pids[p]},{t!r},{names[e]},{letters[c]}"
        for p, t, e, v, c, num in zip(patient.tolist(), time.tolist(), etype.tolist(),
                                      num_value.tolist(), cat_index.tolist(), is_num.tolist())
    ]
    with open(events_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    # proportional hazards on the latent risk; censoring at a uniform time
    t_event = rng.exponential(365.0 * np.exp(-risk))
    t_censor = rng.uniform(0.0, np.quantile(t_event, 1.0 - censor_fraction) * 4.0, n_patients)
    observed = t_event <= t_censor
    y = np.maximum(np.minimum(t_event, t_censor), 0.01)
    with open(labels_path, "w", encoding="utf-8") as fh:
        fh.write("patient_id,Y,R\n")
        fh.writelines(f"{pids[i]},{y[i]:.4f},{int(observed[i])}\n" for i in range(n_patients))
    return pids
