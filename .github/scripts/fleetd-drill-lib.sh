# Shell functions shared by the fleetd drills in ci.yml (upgrade-drill and
# chaos-fuzz). `source` this after setting FLEETD to the daemon binary.

# mk_config DIR: a paused 2-cell hotspot-shift daemon checkpointing every 8
# slots, state under DIR/state.
mk_config() {
  mkdir -p "$1"
  cat > "$1/config.toml" <<'EOF'
scenario = "hotspot-shift"
cells = 2
seed = 17
state_dir = "state"
start_paused = true

[checkpoint]
cadence_slots = 8
retain = 2
EOF
}

# ctl DIR REQUEST: one control-socket request to the daemon of DIR.
ctl() { "$FLEETD" ctl "$1/state/control.sock" "$2"; }

# wait_ready DIR: poll until the daemon of DIR answers `status` (2 min).
wait_ready() {
  for _ in $(seq 1 600); do
    if ctl "$1" '{"op":"status"}' >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "daemon in $1 never became ready" >&2; exit 1
}
