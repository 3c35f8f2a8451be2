let all =
  [ Chaos.harness; Overload.harness; Shard.harness; Ckpt.harness; Sched.harness; Telem.harness;
    Elastic.harness ]

let find name = List.find_opt (fun h -> h.Harness.name = name) all
